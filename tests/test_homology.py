"""The quotient engine: dimensions, signs, classes, derived numbers."""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
import tracemalloc
from itertools import product
from math import gcd, prod

import pytest

from conftest import FIXTURES, e8, elliptic_a, elliptic_b, lens, random_forest
from oracle_charlattice import enumerate_box
from oracle_homology import class_members, reference_homology
from oracle_hplus import rational_via_hplus
from plumblat import (
    ZERO,
    CharVector,
    EdgeSign,
    class_of,
    compute_homology,
    convert_convention,
    derived_dimensions,
    homology,
    intersection_form,
    intlinalg,
    is_rational,
    parse_plumbing,
    parse_sfs,
    surgery_triple,
    validate_forest,
)
from plumblat.charlattice import (
    DEFAULT_BOX_CAP,
    BoxIndex,
    OrbitIndexer,
    box_ranges,
)
from plumblat.errors import (
    BoxTooLarge,
    InternalInvariantViolation,
    NegativeOddDimension,
    NotNegativeDefinite,
    NotNegativeDefiniteEitherOrientation,
)
from plumblat.hplus import _GradedOrbitTable, ker_u_cross_check
from plumblat.seifert import SeifertData, seifert_to_plumbing


def test_lens_dimensions():
    for p in range(1, 9):
        assert compute_homology(lens(p)).total_dim == p


def test_lens4_class_structure():
    result = compute_homology(lens(4))
    assert result.total_dim == 4
    merged = class_of(CharVector((-4,)), result)
    other = class_of(CharVector((4,)), result)
    assert merged.index == other.index
    assert merged.sign * other.sign == 1
    for v in (-2, 0, 2):
        ref = class_of(CharVector((v,)), result)
        assert not ref.is_zero
        assert len(class_members(result)[ref.index][1]) == 1


def test_e8_dimension_one_generated_by_zero_vector():
    result = compute_homology(e8())
    assert result.total_dim == 1
    ref = class_of(CharVector((0,) * 8), result)
    assert not ref.is_zero


def test_extremal_vector_dies_through_the_central_vertex():
    """A vector extremal at the branch vertex reflects onto an out-of-range
    one at an adjacent vertex, hence lands in the zero class."""
    result = compute_homology(e8())
    k = CharVector((0, 0, 0, 0, -2, 0, 0, 2))
    assert class_of(k, result).is_zero


def test_class_of_examples():
    r2 = compute_homology(lens(2))
    assert class_of(CharVector((4,)), r2).is_zero
    with pytest.raises(KeyError):
        class_of(CharVector((1,)), r2)  # in range but not characteristic
    a = class_of(CharVector((-2,)), r2)
    b = class_of(CharVector((2,)), r2)
    assert a.index == b.index and a.sign * b.sign == 1
    r1 = compute_homology(lens(1))
    a = class_of(CharVector((-1,)), r1)
    b = class_of(CharVector((1,)), r1)
    assert a.index == b.index and a.sign * b.sign == -1


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_class_of_edge_cases(edge_sign):
    """Wrong length and odd in-box vectors raise; an off-box coordinate
    beats an odd one; dead vectors give ZERO; and the answers do not depend
    on the order of the lookups, which path compression reorders."""
    forest = e8() if edge_sign is EdgeSign.MINUS_ONE else convert_convention(e8()).forest
    result = compute_homology(forest)
    box = result.box
    with pytest.raises(KeyError):
        class_of((0,) * 7, result)
    with pytest.raises(KeyError):
        class_of((0,) * 9, result)
    with pytest.raises(KeyError):
        class_of((1,) + (0,) * 7, result)
    assert class_of((1,) + (0,) * 6 + (4,), result) is ZERO
    dead = CharVector((0, 0, 0, 0, -2, 0, 0, 2))
    assert dead.evals in {box.evals(a) for a in range(box.size)}
    assert class_of(dead, result) is ZERO
    vectors = enumerate_box(result.form)
    forward = [class_of(k, result) for k in vectors]
    backward = [class_of(k, result) for k in reversed(vectors)][::-1]
    assert forward == backward
    assert sum(not ref.is_zero for ref in forward) >= result.total_dim


def test_sign_relation_all_p():
    for p in range(1, 11):
        result = compute_homology(lens(p))
        lo = class_of(CharVector((-p,)), result)
        hi = class_of(CharVector((p,)), result)
        assert lo.index == hi.index
        assert lo.sign * hi.sign == (-1) ** p


def test_default_box_cap_trips_before_allocating():
    """3^16 box vectors of a (-2)-chain exceed the default cap, and every box
    pass refuses them before allocating anything proportional to the box."""
    chain = validate_forest(
        [(f"v{i}", -2) for i in range(16)],
        [(f"v{i}", f"v{i + 1}") for i in range(15)],
    )
    message = f"box holds {3**16} vectors, cap is {DEFAULT_BOX_CAP}"
    for run in (
        compute_homology,
        ker_u_cross_check,
        rational_via_hplus,
        lambda forest: enumerate_box(intersection_form(forest)),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(BoxTooLarge, match=message):
                run(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_requires_negative_definite():
    with pytest.raises(NotNegativeDefinite):
        compute_homology(validate_forest([("a", 0)]))


def _one_class_per_orbit(forest) -> None:
    """The box engine gives |det| classes, one on every orbit: the fact
    that lets ``full_report`` read a rational forest's dimension off the
    determinant without a box (Nemethi, Geom. Topol. 9 (2005), section 6)."""
    result = compute_homology(forest)
    assert result.total_dim == result.det_abs
    assert [orbit.dim for orbit in result.per_orbit] == [1] * result.det_abs


def test_rational_fixtures_have_one_class_per_orbit():
    rational = []
    for path in sorted(FIXTURES.iterdir()):
        text = path.read_text()
        if path.suffix == ".plumb":
            forest = parse_plumbing(text)
        else:
            forest = seifert_to_plumbing(parse_sfs(text.strip())).forest
        if is_rational(forest).rational:
            rational.append(path.name)
            _one_class_per_orbit(forest)
    assert rational == ["e8.plumb"] + [f"lens_{p}.plumb" for p in range(1, 9)]


@pytest.mark.parametrize("p", range(7, 13))
def test_rational_star_ladder_has_one_class_per_orbit(p):
    """Every rung of -2; 2/1 3/1 p/(p-1) is rational, with |det| = p + 6."""
    forest = seifert_to_plumbing(parse_sfs(f"-2; 2/1 3/1 {p}/{p - 1}")).forest
    assert is_rational(forest).rational
    assert abs(intersection_form(forest).determinant) == p + 6
    _one_class_per_orbit(forest)


def test_derived_dimensions_lens3():
    result = compute_homology(lens(3))
    dims = derived_dimensions(result.total_dim, result.det_abs, almost_rational_certified=True)
    assert dims.dim_isharp == 3
    assert dims.dim_isharp_even == 3
    assert dims.dim_isharp_odd == 0
    assert dims.is_instanton_lspace
    assert not dims.conjectural


def test_derived_dimensions_elliptic_links():
    mod = compute_homology(elliptic_b())
    assert mod.det_abs == 13
    assert mod.total_dim == 14
    dims = derived_dimensions(mod.total_dim, mod.det_abs, almost_rational_certified=True)
    assert dims.dim_isharp == 15
    assert dims.dim_hfhat == 15

    plain = compute_homology(elliptic_a())
    dims = derived_dimensions(plain.total_dim, plain.det_abs)
    assert not dims.is_instanton_lspace
    assert plain.total_dim > plain.det_abs


def test_negative_odd_dimension_guard():
    result = compute_homology(lens(3))
    root = min(result.root_refs)
    broken = dataclasses.replace(  # one class, below |det| = 3
        result, total_dim=1, root_refs={root: 0}, orbit_classes={result.box.key(root): [0]}
    )
    with pytest.raises(NegativeOddDimension):
        derived_dimensions(broken.total_dim, broken.det_abs)


def _parity_witness(matrix) -> list[int]:
    """The first 0/1 vector c, in lex order, with A c = diag(A) mod 2, by
    trying all 2^n of them; one exists for every symmetric A, since
    diag(A) is orthogonal to ker A mod 2."""
    n = len(matrix)
    for c in product((0, 1), repeat=n):
        if all((sum(a * x for a, x in zip(row, c)) - row[i]) % 2 == 0
               for i, row in enumerate(matrix)):
            return list(c)
    raise AssertionError("A c = diag(A) has no solution mod 2")


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_class_signs_follow_a_parity_witness(rng, edge_sign):
    """Every sign class_of gives is (-1)^{c . (d(k) - d(rep))} for a c with
    A c = diag(A) mod 2, d the box digits (k - m) / 2, c found here by brute
    force: the sign is a function of the vector alone, so no class can meet
    its own negative.  (The engine reads its signs off such a c; this
    witness is found apart from it.)"""
    odd = 0
    for _ in range(1000):
        forest = random_forest(rng, max_vertices=4, edge_sign=edge_sign)
        odd += any(m % 2 for m in forest.framings)
        result = compute_homology(forest)
        c, framings = _parity_witness(result.form.matrix), forest.framings

        def parity(evals):
            return sum(ci * (e - m) // 2 for ci, e, m in zip(c, evals, framings)) & 1

        reps = [parity(cls.representative.evals) for cls in result.classes]
        for k in enumerate_box(result.form):
            ref = class_of(k, result)
            if not ref.is_zero:
                assert ref.sign == (-1) ** (parity(k.evals) ^ reps[ref.index])
    assert odd >= 500


def test_views_and_lookups_agree_across_threads():
    """Threads that read the lazy views, call class_of and read bulk
    columns on one shared result, with the builds of the views and sign
    tables racing under a short switch interval, all see what a serial
    pass over a fresh result sees."""
    forest = validate_forest(
        [(f"v{i}", -4) for i in range(4)], [(f"v{i}", f"v{i + 1}") for i in range(3)]
    )
    fresh = compute_homology(forest)
    vectors = enumerate_box(fresh.form)
    columns = [[(1 + a % 3, a) for a in range(start, fresh.box.size, 7)] for start in range(7)]
    expected = (fresh.classes, fresh.per_orbit, [class_of(k, fresh) for k in vectors],
                list(fresh.columns(columns)))
    shared = compute_homology(forest)
    seen = [None] * 6

    def read(slot):
        order = vectors if slot % 2 else vectors[::-1]  # odd slots walk forward
        bulk = list(shared.columns(columns)) if slot % 3 else None
        lookups = [class_of(k, shared) for k in order]
        if bulk is None:  # slots 0 and 3 read the columns last
            bulk = list(shared.columns(columns))
        if not slot % 2:
            lookups.reverse()
        seen[slot] = (shared.classes, shared.per_orbit, lookups, bulk)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(len(seen))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == expected for result in seen)


def test_a_wrong_parity_vector_raises(monkeypatch):
    """The one check A c = diag(A) mod 2 stands in for a per-pair sign
    check: a c with one bit flipped where that breaks the system makes
    compute_homology raise, on every vertex of every forest tried."""
    forests = [lens(5), e8(), elliptic_b(), *(random_forest(random.Random(seed), edge_sign=sign)
                                           for seed in range(20) for sign in EdgeSign)]
    tried = 0
    for forest in forests:
        matrix = intersection_form(forest).matrix
        for v in range(len(forest)):
            if not any(row[v] % 2 for row in matrix):
                continue  # flipping c_v keeps A c = diag(A): still a witness
            tried += 1

            def flipped(rows, v=v):
                c = intlinalg.parity_vector(rows)
                c[v] ^= 1
                return c

            monkeypatch.setattr(homology, "parity_vector", flipped)
            with pytest.raises(InternalInvariantViolation):
                compute_homology(forest)
            monkeypatch.undo()
    assert tried >= 100


def _box_index(evals, box):
    return sum((e - m) // 2 * stride for e, m, stride in zip(evals, box.framings, box.strides))


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_links_point_down_and_roots_are_class_minima(rng, edge_sign):
    """``links`` stores plain parents: each is smaller than its key, every
    alive index is a root or linked, and each class's root, the index its
    members' links lead to, is the least index of the reference engine's
    class, in class order."""
    for _ in range(150):
        forest = random_forest(rng, max_vertices=5, edge_sign=edge_sign)
        result = compute_homology(forest)
        box, links = result.box, result.links
        assert all(parent < child for child, parent in links.items())
        ref = reference_homology(forest)
        members = [sorted(_box_index(k, box) for k, _ in cls_members)
                   for _, cls_members in ref.classes]
        assert list(result.root_refs) == [m[0] for m in members]
        assert list(result.root_refs.values()) == list(range(len(members)))
        alive = {a for m in members for a in m}
        assert set(links) == alive - set(result.root_refs)
        for m in members:
            assert {_root(links, a) for a in m} == {m[0]}


def _root(links, a):
    while a in links:
        a = links[a]
    return a


def _reflection(k, i, matrix, framings):
    """One extremal reflection at vertex i, with its sign."""
    m = framings[i]
    if k[i] == m:
        target = tuple(k[j] - 2 * matrix[i][j] for j in range(len(k)))
    elif k[i] == -m:
        target = tuple(k[j] + 2 * matrix[i][j] for j in range(len(k)))
    else:
        return None
    return target, (-1) ** m


def test_reflection_is_a_signed_involution(rng):
    """Reflecting twice at the same vertex returns the vector with sign +1."""
    for _ in range(20):
        forest = random_forest(rng, max_vertices=4)
        form = intersection_form(forest)
        from plumblat.charlattice import box_ranges
        from itertools import product

        for k in product(*box_ranges(form)):
            for i in range(len(forest)):
                first = _reflection(k, i, form.matrix, forest.framings)
                if first is None:
                    continue
                target, sign = first
                back, sign2 = _reflection(target, i, form.matrix, forest.framings)
                assert back == k
                assert sign * sign2 == 1


def test_dimension_lower_bound_random(rng):
    for _ in range(40):
        result = compute_homology(random_forest(rng))
        assert result.total_dim >= result.det_abs
        assert all(oh.dim >= 1 for oh in result.per_orbit)


def test_dimension_invariant_under_reordering(rng):
    for _ in range(15):
        forest = random_forest(rng, max_vertices=5)
        ids = list(zip(forest.ids, forest.framings))
        edges = [(forest.ids[a], forest.ids[b]) for a, b in forest.edges]
        order = list(range(len(ids)))
        rng.shuffle(order)
        permuted = validate_forest([ids[i] for i in order], edges)
        assert (
            compute_homology(permuted).total_dim
            == compute_homology(forest).total_dim
        )


def _chain_forest(framings, order, edge_sign):
    """The chain v0 - v1 - ... with its vertex lines written in ``order``."""
    names = [f"v{i}" for i in range(len(framings))]
    return validate_forest(
        [(names[i], framings[i]) for i in order], list(zip(names, names[1:])), edge_sign
    )


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_chains_are_lens_spaces_in_any_vertex_order(edge_sign):
    """A linear chain with framings <= -2 bounds a lens space, an L-space:
    total dimension |det| and dimension 1 on every orbit, whatever order
    its vertex lines come in.  Boxes above 2 * 10^5 vectors are redrawn to
    keep the run short."""
    rng = random.Random(0x1E25)
    count = 0
    while count < 40:
        framings = [rng.randint(-5, -2) for _ in range(rng.randint(1, 9))]
        if prod(1 - m for m in framings) > 2 * 10**5:
            continue
        order = list(range(len(framings)))
        rng.shuffle(order)
        result = compute_homology(_chain_forest(framings, order, edge_sign))
        assert result.total_dim == result.det_abs
        assert [oh.dim for oh in result.per_orbit] == [1] * result.det_abs
        count += 1


def test_star_orbit_dims_do_not_depend_on_the_leg_order():
    """Seifert stars with their legs permuted give one multiset of per-orbit
    dimensions.  Stars of at most 3 * 10^5 box vectors are drawn until 12
    of them, 4 of which are not L-spaces, have been compared."""
    rng = random.Random(0x57A2)
    count = non_lspaces = 0
    while count < 12 or non_lspaces < 4:
        assert count < 200
        legs = []
        for _ in range(3):
            alpha = rng.randint(2, 9)
            legs.append((alpha, rng.choice([b for b in range(1, alpha) if gcd(alpha, b) == 1])))
        e0 = rng.choice([-1, -1, -2])
        try:
            forest = seifert_to_plumbing(SeifertData(e0=e0, legs=tuple(legs))).forest
        except NotNegativeDefiniteEitherOrientation:
            continue
        if prod(1 - m for m in forest.framings) > 3 * 10**5:
            continue
        dims = None
        for _ in range(3):
            rng.shuffle(legs)
            data = SeifertData(e0=e0, legs=tuple(legs))
            result = compute_homology(seifert_to_plumbing(data).forest)
            got = sorted(oh.dim for oh in result.per_orbit)
            assert dims is None or got == dims
            dims = got
        non_lspaces += sum(dims) > len(dims)
        count += 1


def test_disjoint_union_multiplies_dimensions(rng):
    for _ in range(12):
        left = random_forest(rng, max_vertices=3)
        right = random_forest(rng, max_vertices=3)
        vertices = [(f"L{v}", m) for v, m in zip(left.ids, left.framings)]
        vertices += [(f"R{v}", m) for v, m in zip(right.ids, right.framings)]
        edges = [(f"L{left.ids[a]}", f"L{left.ids[b]}") for a, b in left.edges]
        edges += [(f"R{right.ids[a]}", f"R{right.ids[b]}") for a, b in right.edges]
        union = validate_forest(vertices, edges)
        assert (
            compute_homology(union).total_dim
            == compute_homology(left).total_dim * compute_homology(right).total_dim
        )


def test_unsigned_engine_agrees_on_dimensions(rng):
    """Dropping the framing-parity sign does not change any dimension."""
    for _ in range(25):
        forest = random_forest(rng, max_vertices=5)
        signed = compute_homology(forest)
        unsigned = reference_homology(forest, signed=False)
        assert signed.total_dim == sum(dim for _, dim, _ in unsigned.per_orbit)
        assert [oh.dim for oh in signed.per_orbit] == [
            dim for _, dim, _ in unsigned.per_orbit
        ]


def test_zero_class_collects_escaping_vectors():
    result = compute_homology(lens(1))
    assert result.total_dim == 1
    members = {evals for evals, _ in class_members(result)[0][1]}
    assert members == {(-1,), (1,)}
    assert result.zero_class.is_zero


def _assert_matches_reference(forest):
    result = compute_homology(forest)
    ref = reference_homology(forest)
    assert class_members(result) == list(ref.classes)
    assert [
        (oh.orbit.representative.evals, oh.dim, tuple(r.evals for r in oh.representatives))
        for oh in result.per_orbit
    ] == list(ref.per_orbit)
    for evals, (index, sign) in ref.lookup.items():  # every box vector
        ref_class = class_of(evals, result)
        assert ref_class.index == index
        assert ref_class.sign == sign


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_engine_matches_reference_engine(rng, edge_sign):
    """The index engine reproduces the tuple-and-dict engine class by class."""
    for _ in range(30):
        _assert_matches_reference(random_forest(rng, max_vertices=5, edge_sign=edge_sign))
    for forest in (e8(), elliptic_a(), elliptic_b(), lens(1), lens(4)):
        if edge_sign is EdgeSign.PLUS_ONE:
            forest = convert_convention(forest).forest
        _assert_matches_reference(forest)


def _flag_sweeps(forest):
    """Sweeps over the reflections, in vertex order, in which some escape
    flag crosses a pair: the engine's fixpoint, replayed on tuples."""
    form = intersection_form(forest)
    n = len(forest)
    box = set(product(*box_ranges(form)))
    pairs, dead = [], set()
    for i, m in enumerate(forest.framings):
        row = form.matrix[i]
        for k in box:
            if abs(k[i]) != -m:
                continue
            step = -2 if k[i] == m else 2
            target = tuple(k[j] + step * row[j] for j in range(n))
            if target not in box:
                dead.add(k)
            elif step < 0:
                pairs.append((k, target))
    sweeps = 0
    while True:
        moved = [pair for pair in pairs if (pair[0] in dead) != (pair[1] in dead)]
        if not moved:
            return sweeps
        for pair in pairs:  # one sweep, reflection after reflection
            if pair[0] in dead or pair[1] in dead:
                dead.update(pair)
        sweeps += 1


def _offsets(forest):
    """Index offset of each reflection's pairs, as the engine lays them out."""
    form = intersection_form(forest)
    box = BoxIndex(form, DEFAULT_BOX_CAP)
    return [
        (box.radices[i] - 1) * box.strides[i]
        - sum(a * box.strides[j] for j, a in enumerate(row) if j != i)
        for i, row in enumerate(form.matrix)
    ]


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_engine_matches_reference_where_flags_take_several_sweeps(edge_sign):
    """Forests whose escape flags still move after the first sweep over the
    reflections, in boxes of many machine words, with negative pair offsets
    (a neighbour before the reflected vertex) in the +1 convention."""
    rng = random.Random(0xF1A65)
    forests = []
    while len(forests) < 6:
        forest = random_forest(rng, max_vertices=6, edge_sign=edge_sign)
        if prod(1 - m for m in forest.framings) <= 3000 and _flag_sweeps(forest) >= 2:
            forests.append(forest)
    assert max(prod(1 - m for m in f.framings) for f in forests) > 640
    negative = any(min(_offsets(f)) < 0 for f in forests)
    assert negative == (edge_sign is EdgeSign.PLUS_ONE)
    for forest in forests:
        _assert_matches_reference(forest)


def _square_free_families(monkeypatch, run):
    """The families one engine hands to BoxIndex.square_free, as (before,
    after) bit lists."""
    seen = []
    square_free = BoxIndex.square_free

    def recording(box, starts):
        before = list(starts)
        square_free(box, starts)
        seen.append((before, list(starts)))

    with monkeypatch.context() as patch:
        patch.setattr(BoxIndex, "square_free", recording)
        run()
    (families,) = seen
    return families


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_square_free_drops_only_pairs_that_close_a_square(monkeypatch, edge_sign):
    """Both union-finds skip a pair only where it closes a commuting square:
    every dropped start a of family v lies in some family u with a + o_u in
    family v and a + o_v in family u, all three pairs alive.  The births'
    faces are the reflection pairs read from their other ends, and what
    each engine keeps is the other's image under negation."""
    rng = random.Random(0x5A0A2E)
    dropped = {"homology": 0, "births": 0}
    disconnected = 0
    for _ in range(150):
        forest = random_forest(rng, max_vertices=6, edge_probability=0.6, edge_sign=edge_sign)
        disconnected += len(forest.edges) < len(forest) - 1
        form = intersection_form(forest)
        table = _GradedOrbitTable(BoxIndex(form, DEFAULT_BOX_CAP))
        box = table.box
        engines = {
            "homology": (
                _square_free_families(monkeypatch, lambda: compute_homology(forest)),
                _offsets(forest),
            ),
            "births": (
                _square_free_families(monkeypatch, lambda: table._birth_roots),
                table._up,
            ),
        }
        for name, ((before, after), offsets) in engines.items():
            for v, (alive, kept) in enumerate(zip(before, after)):
                assert kept & ~alive == 0
                for a in box.set_bits(alive ^ kept):
                    dropped[name] += 1
                    assert any(
                        alive_u >> a & 1
                        and alive >> a + offsets[u] & 1
                        and alive_u >> a + offsets[v] & 1
                        for u, alive_u in enumerate(before)
                        if u != v
                    ), (name, v, box.evals(a))
        (before, after), offsets = engines["homology"]
        (faces, face_kept), _ = engines["births"]
        top = box.size - 1
        for v, offset in enumerate(offsets):
            assert faces[v] == box.shift(before[v], offset)
            assert set(box.set_bits(face_kept[v])) == {
                top - a for a in box.set_bits(after[v])
            }
    assert disconnected >= 20
    assert min(dropped.values()) >= 1000


def _assert_orbits_match_keys(forest):
    """Every class sits in the orbit whose representative shares its
    OrbitIndexer key, and the box splits into a head and a tail table."""
    result = compute_homology(forest)
    box = BoxIndex(result.form, DEFAULT_BOX_CAP)
    low, heads, tails = box.low, box.heads, box.tails
    assert low > 1 and len(heads) > 1
    indexer = OrbitIndexer(result.form)
    orbit_of = {indexer.key(oh.orbit.representative): oh.orbit.index for oh in result.per_orbit}
    assert len(orbit_of) == len(result.per_orbit) == result.det_abs
    placed = []
    for oh in result.per_orbit:
        assert len(oh.representatives) == oh.dim
        for rep in oh.representatives:
            assert orbit_of[indexer.key(rep)] == oh.orbit.index
            placed.append(rep)
    assert sorted(r.evals for r in placed) == sorted(c.representative.evals for c in result.classes)


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_class_orbits_match_orbit_keys(rng, edge_sign):
    """The orbit of each class, read off the two halves of the box at its
    minimum index, is the one OrbitIndexer.key gives its representative."""
    count = 0
    while count < 25:
        forest = random_forest(rng, max_vertices=6, edge_sign=edge_sign)
        if len(forest) >= 4:
            _assert_orbits_match_keys(forest)
            count += 1


def test_class_orbits_match_orbit_keys_on_triad_chains():
    for framings in ([-6] * 3, [-4] * 4, [-8] * 3):
        names = [f"v{i}" for i in range(len(framings))]
        chain = validate_forest(list(zip(names, framings)), list(zip(names, names[1:])))
        triple = surgery_triple(chain, "v0")
        for forest in (triple.removed, triple.base, triple.bumped):
            _assert_orbits_match_keys(forest)


def test_engine_peak_memory_on_a_long_chain():
    """The (-3, -2^10, -3) chain has 944,784 box vectors; the bitset engine
    holds a few bits per vector, not an index array."""
    framings = [-3] + [-2] * 10 + [-3]
    chain = validate_forest(
        [(f"v{i}", m) for i, m in enumerate(framings)],
        [(f"v{i}", f"v{i + 1}") for i in range(len(framings) - 1)],
    )
    tracemalloc.start()
    try:
        result = compute_homology(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.total_dim == result.det_abs == 48
    assert peak < 16 * 2**20


def test_births_peak_memory_on_a_long_chain():
    """The births of the same chain hold its twelve face bitsets (115 KiB
    each) once: a second list of them would pass the bound."""
    framings = [-3] + [-2] * 10 + [-3]
    chain = validate_forest(
        [(f"v{i}", m) for i, m in enumerate(framings)],
        [(f"v{i}", f"v{i + 1}") for i in range(len(framings) - 1)],
    )
    table = _GradedOrbitTable(BoxIndex(intersection_form(chain), DEFAULT_BOX_CAP))
    tracemalloc.start()
    try:
        roots = table._birth_roots
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, roots.values())) == 48
    assert peak < 6 * 2**20
