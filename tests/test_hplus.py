"""The graded engine, its sweep oracle, and the kernel-of-U cross-check."""

from __future__ import annotations

import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product
from operator import mul
from struct import Struct

import pytest

import oracle_hplus
from conftest import FIXTURES, e8, elliptic_a, elliptic_b, lens, random_forest
from oracle_charlattice import lattice_to_char, weight_radius_sq_bound
from oracle_hplus import (
    rational_via_hplus,
    reference_birth_counts,
    reference_grading,
    reference_hplus,
    reference_sweep_levels,
    sublevel_complex,
    unit_neighbors,
)
from plumblat import (
    CharVector,
    EdgeSign,
    LatticeVector,
    charlattice,
    compute_homology,
    compute_hplus,
    hplus,
    intersection_form,
    intlinalg,
    ker_u_cross_check,
    parse_plumbing,
    parse_sfs,
    seifert_to_plumbing,
    validate_forest,
)
from plumblat.cli import main
from plumblat.errors import EnumerationBudgetExceeded, InternalInvariantViolation
from plumblat.homology import HomologyResult
from plumblat.hplus import CrossCheckRow, _GradedOrbitTable
from plumblat.moves import convert_convention


def test_single_vertex_orbit_of_zero():
    """The table stops at stabilization; the oracle's levels past it stay
    connected and birthless."""
    graded = compute_hplus(lens(2), CharVector((0,)))
    assert graded.ker_u_rank == 1
    assert graded.stabilized_at == 0
    assert [(l.level, l.rank, l.births) for l in graded.levels] == [(0, 1, 1)]
    assert _brute_levels(lens(2), CharVector((0,)), 2) == [
        (0, 1, 1),
        (1, 1, 0),
        (2, 1, 0),
    ]


def test_single_vertex_plateau_orbit():
    """k0 with value 2 on a -2 vertex: minima at 0 and 1 join at level 0."""
    graded = compute_hplus(lens(2), CharVector((2,)))
    assert graded.ker_u_rank == 1
    assert graded.levels[0] == type(graded.levels[0])(level=0, rank=1, births=1)


def test_e8_single_orbit_rank_one():
    result = compute_homology(e8())
    graded = compute_hplus(e8(), result.per_orbit[0].orbit)
    assert graded.ker_u_rank == 1


def test_cross_check_lens_spaces():
    report = ker_u_cross_check(lens(5))
    assert report.ok
    assert [r.ker_u_rank for r in report.rows] == [1] * 5
    assert sum(r.homology_dim for r in report.rows) == 5


def test_cross_check_e8():
    report = ker_u_cross_check(e8())
    assert report.ok
    assert len(report.rows) == 1


def test_cross_check_elliptic_a():
    report = ker_u_cross_check(elliptic_a())
    assert report.ok
    assert sorted(r.ker_u_rank for r in report.rows) == [1, 1, 1, 2]


def test_cross_check_rows_carry_level_tables_under_the_point_cap():
    """Each row holds its orbit's compute_hplus table, and the point cap
    bounds the sweeps that build them, in the library and in ``sfs hplus``."""
    forest = elliptic_a()
    for row in ker_u_cross_check(forest).rows:
        assert row.graded == compute_hplus(forest, row.orbit)
        assert row.ker_u_rank == row.graded.ker_u_rank
    with pytest.raises(EnumerationBudgetExceeded):
        ker_u_cross_check(forest, point_cap=1)
    sfs = (FIXTURES / "m038_n1.sfs").read_text().strip()
    assert main(["sfs", "--sfs", sfs, "hplus", "--point-cap", "1"]) == 3
    assert main(["sfs", "--sfs", sfs, "hplus"]) == 0


def test_cross_check_reads_no_object_view(monkeypatch):
    """With ``classes`` and ``per_orbit`` patched to raise, the cross-check
    gives the rows built from ``per_orbit`` (each orbit's dimension and
    compute_hplus table), on every fixture and 30 seeded forests in both
    conventions; and per-orbit dimensions that miss ``total_dim`` raise."""
    rng = random.Random(0xC4EC)
    forests = [parse_plumbing(path.read_text()) for path in sorted(FIXTURES.glob("*.plumb"))]
    for path in sorted(FIXTURES.glob("*.sfs")):
        forests.append(seifert_to_plumbing(parse_sfs(path.read_text().strip())).forest)
    for i in range(30):
        sign = EdgeSign.PLUS_ONE if i % 2 else EdgeSign.MINUS_ONE
        forests.append(random_forest(rng, max_vertices=5, lo=-4, edge_sign=sign))
    expected = [
        tuple(
            CrossCheckRow(orbit=oh.orbit, homology_dim=oh.dim, graded=compute_hplus(f, oh.orbit))
            for oh in compute_homology(f).per_orbit
        )
        for f in forests
    ]

    def refuse(self):
        raise AssertionError("an object view was built")

    monkeypatch.setattr(HomologyResult, "classes", property(refuse))
    monkeypatch.setattr(HomologyResult, "per_orbit", property(refuse))
    assert [ker_u_cross_check(f).rows for f in forests] == expected

    def off_by_one(forest, box_cap):
        result = compute_homology(forest, box_cap=box_cap)
        return replace(result, total_dim=result.total_dim + 1)

    monkeypatch.setattr(hplus, "compute_homology", off_by_one)
    with pytest.raises(InternalInvariantViolation, match="do not add up"):
        ker_u_cross_check(elliptic_a())


def test_cross_check_random_suite(rng):
    """Fifty random small forests: quotient dims equal kernel ranks."""
    for _ in range(50):
        forest = random_forest(rng, max_vertices=5)
        assert ker_u_cross_check(forest).ok


def test_rational_via_hplus():
    assert rational_via_hplus(e8())
    chain = validate_forest(
        [("a", -2), ("b", -2), ("c", -3)], [("a", "b"), ("b", "c")]
    )
    assert rational_via_hplus(chain)
    assert not rational_via_hplus(elliptic_a())


def test_stabilization_is_stable(rng):
    """The table ends at its stabilization level, and the two levels past
    it stay connected and birthless: built by the oracle's one-level floods,
    and on forests of at most three vertices also by the brute-force
    window, which grows too fast for more."""
    cases = [elliptic_a(), lens(4)]
    for _ in range(10):
        cases.append(random_forest(rng, max_vertices=4))
    for forest in cases:
        result = compute_homology(forest)
        for oh in result.per_orbit:
            graded = compute_hplus(forest, oh.orbit)
            stable = graded.stabilized_at
            assert graded.levels[-1].level == stable
            tail = _flooded_levels(forest, oh.orbit, stable, 2)
            assert tail == [(stable + 1, 1, 0), (stable + 2, 1, 0)]
            if len(forest) <= 3:
                expected = _brute_levels(forest, oh.orbit.representative, stable + 2)
                assert [level for level in expected if level[0] > stable] == tail


def _flooded_levels(forest, orbit, level, count):
    """(n, rank, births) for the ``count`` levels past ``level``, from the
    oracle's one-level floods: a birth is a component that misses S_{n-1}."""
    previous = sublevel_complex(forest, orbit, level).points
    levels = []
    for n in range(level + 1, level + count + 1):
        snapshot = sublevel_complex(forest, orbit, n)
        births = sum(1 for members in snapshot.components if previous.isdisjoint(members))
        levels.append((n, snapshot.rank, births))
        previous = snapshot.points
    return levels


def _brute_levels(forest, rep, up_to):
    """Independent oracle: enumerate sublevel sets by scanning a certified
    window, then count components and births with a fresh union-find."""
    grading = reference_grading(_GradedOrbitTable.of(forest, 10**8), rep)
    form = grading.form
    radius_sq = weight_radius_sq_bound(form, grading.k0, up_to)
    bound = 1
    while bound * bound <= radius_sq:
        bound += 1
    assert bound ** len(form) <= 10**6, "oracle window too large for this case"
    window = [
        x
        for x in product(range(-bound, bound + 1), repeat=len(form))
        if sum(c * c for c in x) <= radius_sq
    ]
    weights = {x: grading.weight(x) for x in window}
    levels = []
    previous_points = set()
    for n in range(min(weights.values()), up_to + 1):
        pts = [x for x, w in weights.items() if w <= n]
        index = {x: i for i, x in enumerate(pts)}
        parent = list(range(len(pts)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for x in pts:
            for q in unit_neighbors(x):
                j = index.get(q)
                if j is not None:
                    parent[find(index[x])] = find(j)
        components = {}
        for x in pts:
            components.setdefault(find(index[x]), []).append(x)
        births = sum(
            1
            for members in components.values()
            if not any(x in previous_points for x in members)
        )
        if pts:
            levels.append((n, len(components), births))
        previous_points = set(pts)
    return levels


def test_sweep_matches_brute_force_oracle(rng):
    """Level tables against a from-scratch window enumeration.

    Kept to three vertices: the certified window is conservative, and its
    volume grows too fast with the rank for an exhaustive scan beyond that.
    """
    cases = [
        validate_forest([("a", -2), ("b", -2)], [("a", "b")]),
        validate_forest([("a", -1), ("b", -3)], [("a", "b")]),
    ]
    for _ in range(6):
        cases.append(random_forest(rng, max_vertices=3, lo=-3))
    for forest in cases:
        result = compute_homology(forest)
        for oh in result.per_orbit:
            graded = compute_hplus(forest, oh.orbit)
            stable = graded.stabilized_at
            expected = _brute_levels(forest, oh.orbit.representative, stable + 1)
            got = [(l.level, l.rank, l.births) for l in graded.levels]
            assert got + [(stable + 1, 1, 0)] == expected
            assert sum(b for _, _, b in expected) == graded.ker_u_rank


def test_birth_counts_equal_homology_dim_per_orbit(rng):
    """The plateau births, summed, are the per-orbit quotient dimension."""
    for _ in range(8):
        forest = random_forest(rng, max_vertices=4)
        result = compute_homology(forest)
        table = _GradedOrbitTable.of(forest, 10**8)
        for oh in result.per_orbit:
            births = table.births(*table.key_and_q(oh.orbit.representative))
            assert sum(births.values()) == oh.dim


def test_cli_hplus_builds_one_graded_table(monkeypatch, capsys, tmp_path):
    """One box and one indexer, shared by the quotient and the graded
    engine, and one birth count per orbit, whatever |det| is.  The
    cross-check scans the box for orbits once and the quotient's object
    views are not built; a flood walks its one orbit's members, so
    elliptic_b, which floods one orbit, scans once too."""
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        charlattice.OrbitIndexer,
        "__init__",
        counting("indexer", charlattice.OrbitIndexer.__init__),
    )
    monkeypatch.setattr(
        charlattice.BoxIndex, "__init__", counting("box", charlattice.BoxIndex.__init__)
    )
    monkeypatch.setattr(
        charlattice.BoxIndex, "orbits", counting("orbits", charlattice.BoxIndex.orbits)
    )
    monkeypatch.setattr(
        _GradedOrbitTable, "births", counting("births", _GradedOrbitTable.births)
    )
    chain = tmp_path / "chain3x5.plumb"  # the lens chain (-3)^5, |det| 144
    chain.write_text(
        "".join(f"vertex v{i} -3\n" for i in range(5))
        + "".join(f"edge v{i} v{i + 1}\n" for i in range(4))
    )
    for path, orbits, births in (
        (FIXTURES / "e8.plumb", 1, 1),
        (chain, 1, 144),
        (FIXTURES / "elliptic_b.plumb", 1, 13),  # |det| orbits, each counted once
    ):
        calls.update(box=0, indexer=0, orbits=0, births=0)
        assert main(["hplus", str(path)]) == 0
        assert "cross-check vs homology engine: OK" in capsys.readouterr().out
        assert calls == {"box": 1, "indexer": 1, "orbits": orbits, "births": births}


def test_point_budget():
    with pytest.raises(EnumerationBudgetExceeded):
        compute_hplus(elliptic_a(), compute_homology(elliptic_a()).per_orbit[0].orbit, point_cap=3)


def test_empty_forest():
    report = ker_u_cross_check(validate_forest([]))
    assert report.ok
    assert report.rows[0].ker_u_rank == 1


def test_plus_convention_input_accepted():
    forest = validate_forest(
        [("a", -2), ("b", -3)], [("a", "b")], EdgeSign.PLUS_ONE
    )
    assert ker_u_cross_check(forest).ok


def test_orbit_given_as_bare_vector():
    graded = compute_hplus(lens(3), CharVector((1,)))
    assert graded.ker_u_rank == 1
    assert graded.orbit.index == -1  # placeholder index for ad hoc vectors


def test_sublevel_complex_snapshot():
    complex_0 = sublevel_complex(lens(2), CharVector((2,)), 0)
    assert complex_0.points == {(0,), (1,)}
    assert complex_0.rank == 1
    complex_2 = sublevel_complex(lens(2), CharVector((2,)), 2)
    assert complex_2.points == {(-1,), (0,), (1,), (2,)}
    assert complex_2.rank == 1
    # the two newborn plateaus of the wide orbit of elliptic_a at its first level
    result = compute_homology(elliptic_a())
    orbit = result.per_orbit[0].orbit
    graded = compute_hplus(elliptic_a(), orbit)
    first = graded.levels[0]
    snapshot = sublevel_complex(elliptic_a(), orbit, first.level)
    assert snapshot.rank == first.rank


def test_sublevel_complex_checks_every_flooded_point(monkeypatch):
    """A radius that admits the starting minima but not a point the flood
    reaches later must trip the ellipsoid check."""
    forest, rep, level = lens(2), CharVector((2,)), 2
    grading = reference_grading(_GradedOrbitTable.of(forest, 10**8), rep)
    radius_sq = max(
        sum(c * c for c in x) for x, w in grading.minima.items() if w <= level
    )
    flooded = sublevel_complex(forest, rep, level).points
    assert max(sum(c * c for c in x) for x in flooded) > radius_sq
    monkeypatch.setattr(
        oracle_hplus,
        "weight_radius_sq_bound",
        lambda form, k0, lvl: Fraction(radius_sq),
    )
    with pytest.raises(InternalInvariantViolation, match="ellipsoid"):
        sublevel_complex(forest, rep, level)


def _chain_m1():
    framings = (-1, -4, -2, -2, -2, -2, -3)
    return validate_forest(
        [(f"v{i}", m) for i, m in enumerate(framings)],
        [(f"v{i}", f"v{i + 1}") for i in range(len(framings) - 1)],
    )


# Seifert stars whose orbits carry several births, so their sweeps flood:
# the first has one orbit with six births
FLOODING_STARS = (
    "-1; 4/1 5/3 7/1",
    "-2; 5/3 7/5 7/5",
    "-2; 7/5 7/5 7/5",
    "-2; 5/3 7/4 7/6",
)


def _differential_cases():
    """Seeded random forests in both conventions, many with -1 framings
    (a -1 vertex lies on a box face in every box vector), the fixtures, and
    the flooding stars in both conventions."""
    rng = random.Random(0x5EED)
    cases = [validate_forest([("a", -1), ("b", -1), ("c", -1)])]
    for i in range(200):
        sign = EdgeSign.PLUS_ONE if i % 2 else EdgeSign.MINUS_ONE
        lo = -3 if i % 4 < 2 else -4
        cases.append(random_forest(rng, max_vertices=5, lo=lo, edge_sign=sign))
    cases += [e8(), elliptic_a(), elliptic_b(), _chain_m1()]
    for text in FLOODING_STARS:
        star = seifert_to_plumbing(parse_sfs(text)).forest
        cases += [star, convert_convention(star).forest]
    return cases


def test_graded_engine_matches_all_neighbour_oracle():
    """Minima, births per level and full level tables agree with the
    per-vector, all-neighbour reference engine."""
    cases = _differential_cases()
    assert sum(1 for f in cases if -1 in f.framings) >= 50
    assert {f.edge_sign for f in cases} == set(EdgeSign)
    flooded = 0
    for forest in cases:
        table = _GradedOrbitTable.of(forest, 10**8)
        for oh in compute_homology(forest).per_orbit:
            rep = oh.orbit.representative
            reference = reference_grading(table, rep)
            # the flood's seeds: every box vector of the orbit, at the weight
            # of its lattice point
            key, q0 = table.key_and_q(rep)
            idxs = table.box.members(key)
            assert [table.weight(a, q0) for a in idxs] == list(reference.minima.values())
            assert table.births(key, q0) == reference_birth_counts(reference)
            # a small point cap stops a flood with wrong weights early; the
            # reference's one level past stabilization is connected and birthless
            graded = table.hplus(oh.orbit, key, q0, 10**5)
            reference = reference_hplus(table, oh.orbit, 10**5, 1)
            assert graded == replace(reference, levels=reference.levels[:-1])
            assert reference.levels[-1] == hplus.HPlusLevel(graded.stabilized_at + 1, 1, 0)
            flooded += graded.ker_u_rank > 1
    assert flooded >= 30


def test_births_match_reference_on_random_forests():
    """Whole-box births against the all-neighbour reference, orbit by orbit,
    on 300 seeded random forests in both conventions (a third with framings
    down to -4, many with -1 framings) and the multi-birth stars in both
    conventions."""
    rng = random.Random(0xB175)
    cases = []
    for i in range(300):
        sign = EdgeSign.PLUS_ONE if i % 2 else EdgeSign.MINUS_ONE
        lo = -4 if i % 3 == 0 else -3
        cases.append(random_forest(rng, max_vertices=5, lo=lo, edge_sign=sign))
    for text in FLOODING_STARS:
        star = seifert_to_plumbing(parse_sfs(text)).forest
        cases += [star, convert_convention(star).forest]
    assert sum(1 for f in cases if -1 in f.framings) >= 50
    multi = 0
    for forest in cases:
        table = _GradedOrbitTable.of(forest, 10**8)
        for key, least in table.box.orbits().items():
            k0 = CharVector(table.box.evals(least))
            births = table.births(key, table.q(least))
            assert births == reference_birth_counts(reference_grading(table, k0))
            multi += sum(births.values()) > 1
    assert multi >= 30


def test_sublevel_complex_ranks_match_level_tables():
    """The one-level flood agrees with every level of the sweep's table."""
    for forest in (elliptic_a(), elliptic_b(), _chain_m1()):
        table = _GradedOrbitTable.of(forest, 10**8)
        for oh in compute_homology(forest).per_orbit:
            for lvl in reference_hplus(table, oh.orbit, 10**7, 1).levels:
                snapshot = sublevel_complex(forest, oh.orbit, lvl.level)
                assert snapshot.rank == lvl.rank


def _orbit_signature(forest):
    """The multiset of per-orbit (ker_u_rank, stabilized_at, levels).

    Weights are taken relative to the orbit representative k0, which the
    vertex order and the convention pick; moving k0 to k0 + 2y* within its
    orbit shifts every weight by (k0'^2 - k0^2)/8 with k^2 = k A^-1 k, so
    levels are compared after subtracting k0^2/8.
    """
    form = intersection_form(forest)
    adj = intlinalg.adjugate(form.matrix) if len(form) else []
    table = _GradedOrbitTable.of(forest, 10**8)
    out = []
    for oh in compute_homology(forest).per_orbit:
        k0 = oh.orbit.representative.evals
        square = Fraction(
            sum(a * k0[i] * k0[j] for i, row in enumerate(adj) for j, a in enumerate(row)),
            form.determinant,
        )
        shift = square / 8
        graded = table.hplus(oh.orbit, *table.key_and_q(oh.orbit.representative), 10**7)
        levels = tuple((l.level - shift, l.rank, l.births) for l in graded.levels)
        out.append((graded.ker_u_rank, graded.stabilized_at - shift, levels))
    return sorted(out)


def _relabelled(forest, rng):
    """The same forest with vertices permuted, renamed, and edges shuffled."""
    order = list(range(len(forest)))
    rng.shuffle(order)
    name = {old: f"w{new}" for new, old in enumerate(order)}
    vertices = [(name[old], forest.framings[old]) for old in order]
    edges = [
        (name[b], name[a]) if rng.random() < 0.5 else (name[a], name[b])
        for a, b in forest.edges
    ]
    rng.shuffle(edges)
    return validate_forest(vertices, edges, forest.edge_sign)


def test_hplus_invariant_under_relabelling_and_convention_flip():
    rng = random.Random(0xF11D)
    cases = [elliptic_a(), elliptic_b()]
    for i in range(40):
        sign = EdgeSign.PLUS_ONE if i % 2 else EdgeSign.MINUS_ONE
        cases.append(random_forest(rng, max_vertices=5, lo=-4, edge_sign=sign))
    for forest in cases:
        signature = _orbit_signature(forest)
        relabelled = _relabelled(forest, rng)
        assert relabelled.ids != forest.ids
        assert _orbit_signature(relabelled) == signature
        flipped = convert_convention(forest).forest
        assert flipped.edge_sign is not forest.edge_sign
        assert _orbit_signature(flipped) == signature


def _chain(framings, edge_sign=EdgeSign.MINUS_ONE):
    return validate_forest(
        [(f"v{i}", m) for i, m in enumerate(framings)],
        [(f"v{i}", f"v{i + 1}") for i in range(len(framings) - 1)],
        edge_sign,
    )


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_index_births_match_oracle_on_a_split_box(edge_sign):
    """The (-3,-2^6,-3) chain: 11,664 box vectors decoded from prefix and
    suffix tables of several entries each, with faces crossing the split."""
    forest = _chain([-3] + [-2] * 6 + [-3], edge_sign)
    table = _GradedOrbitTable.of(forest, 10**8)
    low, heads, tails = table.box.low, table.box.heads, table.box.tails
    assert len(heads) > 1 and len(tails) > 1 and low == len(tails)
    total = 0
    for oh in compute_homology(forest).per_orbit:
        k0 = oh.orbit.representative
        births = table.births(*table.key_and_q(k0))
        assert births == reference_birth_counts(reference_grading(table, oh.orbit.representative))
        assert sum(births.values()) == oh.dim
        total += oh.dim
    assert total == abs(table.indexer.determinant) == 32  # an L-space


def _sweep_calls(monkeypatch, capsys, path):
    calls = []
    original = hplus._sweep_levels

    def counting(table, k0, *args):
        calls.append(k0)
        return original(table, k0, *args)

    monkeypatch.setattr(hplus, "_sweep_levels", counting)
    assert main(["hplus", str(path)]) == 0
    assert "cross-check vs homology engine: OK" in capsys.readouterr().out
    return len(calls)


def test_cli_hplus_solves_coordinates_only_for_floods(monkeypatch, capsys, tmp_path):
    """Orbits with one birth never flood; elliptic_b has one orbit with two
    births, which runs the only flood."""
    chain = tmp_path / "chain3x5.plumb"
    chain.write_text(
        "".join(f"vertex v{i} -3\n" for i in range(5))
        + "".join(f"edge v{i} v{i + 1}\n" for i in range(4))
    )
    assert _sweep_calls(monkeypatch, capsys, FIXTURES / "e8.plumb") == 0
    assert _sweep_calls(monkeypatch, capsys, chain) == 0
    assert _sweep_calls(monkeypatch, capsys, FIXTURES / "elliptic_b.plumb") == 1


def test_long_star_hplus_cross_check(capsys):
    """A Seifert star of 13 vertices (box 2,125,764) through sfs ... hplus."""
    assert main(["sfs", "--sfs", "-2; 2/1 3/1 11/10", "hplus", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cross_check_ok"] is True
    assert len(payload["per_orbit"]) == payload["seifert"]["h1_order"]
    for row in payload["per_orbit"]:
        assert row["ker_u_rank"] == row["homology_dim"]


def test_births_and_coordinates_check_every_member_orbit(monkeypatch):
    """Births certify every face's orbit at once: an offset up_v or a step
    column that no longer match trips them.  The flood checks the orbit key
    of each seed: a box index of another orbit injected into the member
    walk that seeds a flooding orbit trips it, although the births, already
    counted, still hold."""
    forest = elliptic_b()
    (orbit,) = _flooding_orbits(forest)
    k0 = orbit.representative
    for tamper in ("up", "column"):
        table = _GradedOrbitTable.of(forest, 10**8)
        stride = table.box.strides[-1]
        if tamper == "up":
            table._up[1] += stride
        else:
            column = list(table.columns[1])
            column[-1] += 2
            table.columns[1] = tuple(column)
        with pytest.raises(InternalInvariantViolation, match="left its orbit"):
            table.births(*table.key_and_q(k0))
    table = _GradedOrbitTable.of(forest, 10**8)
    key, q0 = table.key_and_q(k0)
    births = table.births(key, q0)
    foreign = next(table.box.members(other) for other in table.box.orbits() if other != key)
    walk = table.box.members
    monkeypatch.setattr(table.box, "members", lambda k: sorted(walk(k) + foreign[-1:]))
    assert foreign[-1] in table.box.members(key)
    assert table.births(key, q0) == births
    with pytest.raises(InternalInvariantViolation, match="left its orbit"):
        table.hplus(orbit, key, q0, 10**7)


def _flooding_orbits(forest):
    return [oh.orbit for oh in compute_homology(forest).per_orbit if oh.dim > 1]


@pytest.mark.parametrize("forest", [elliptic_a(), elliptic_b()], ids=["a", "b"])
def test_wrong_flood_steps_trip_at_once(forest):
    """Step columns with their framing entries negated send the flood off
    the orbit; the flood's births check and the integer bound stop it within
    a few points, long before the default point cap, in well under 1 MiB.
    The births are counted before the tamper, whose column check would stop
    them first."""
    table = _GradedOrbitTable.of(forest, 10**8)
    orbits = _flooding_orbits(forest)
    assert orbits
    for orbit in orbits:  # births count on the true columns, before the tamper
        table.births(*table.key_and_q(orbit.representative))
    table.columns = [
        tuple(-c if u == v else c for u, c in enumerate(column))
        for v, column in enumerate(table.columns)
    ]
    tracemalloc.start()
    try:
        for orbit in orbits:
            with pytest.raises(InternalInvariantViolation):
                table.hplus(orbit, *table.key_and_q(orbit.representative), hplus.DEFAULT_POINT_CAP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_integer_bound_holds_on_sublevel_sets_and_checks_every_point(monkeypatch):
    """Every vector of weight <= n meets k_v^2 <= limits(q0, n), on sublevel
    sets built in coordinates by the oracle; and the flood checks every
    point it reaches, not only its seeds: limits that admit the box but not
    the vectors beyond it trip the check."""
    reached_off_box = False
    for forest in (elliptic_a(), elliptic_b(), _chain_m1()):
        table = _GradedOrbitTable.of(forest, 10**8)
        for orbit in _flooding_orbits(forest):
            k0 = orbit.representative
            key, q0 = table.key_and_q(k0)
            graded = table.hplus(orbit, key, q0, 10**7)
            for level in range(graded.levels[0].level, graded.stabilized_at + 2):
                limits = table.limits(q0, level)
                for x in sublevel_complex(forest, orbit, level).points:
                    k = lattice_to_char(LatticeVector(x), k0, table.form).evals
                    assert all(e * e <= lim for e, lim in zip(k, limits))
                    reached_off_box |= any(e * e > m * m for e, m in zip(k, forest.framings))
    assert reached_off_box
    forest = elliptic_a()
    monkeypatch.setattr(
        _GradedOrbitTable, "limits", lambda self, q0, level: [m * m for m in self.box.framings]
    )
    with pytest.raises(InternalInvariantViolation, match="exact weight bound"):
        compute_hplus(forest, _flooding_orbits(forest)[0])


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_digit_built_q_tables_match_the_adjugate_quadratic(edge_sign):
    """q(a) is k adj(A) k of box.evals(a) at every index of 120 seeded
    forests and single vertices; and the tables built at every split, from
    every vertex in the head to every vertex in the tail, combine to the
    same q (a box's own split never puts every vertex in the tail)."""
    rng = random.Random(0x9DA7 + (edge_sign is EdgeSign.PLUS_ONE))
    cases = [validate_forest([("a", m)], [], edge_sign) for m in (-1, -2, -5)]
    cases += [random_forest(rng, max_vertices=5, lo=-4, edge_sign=edge_sign) for _ in range(120)]
    for forest in cases:
        table = _GradedOrbitTable.of(forest, 10**8)
        box, n = table.box, len(forest)
        expected = [hplus._quadratic(table.indexer.adjugate, box.evals(a)) for a in range(box.size)]
        assert [table.q(a) for a in range(box.size)] == expected
        for split in range(n + 1):
            heads, tails = table._q_table(0, split), table._q_table(split, n)
            low = len(tails)
            assert len(heads) * low == box.size
            assert all(row == [] for _, row in tails)
            got = []
            for a in range(box.size):
                (qh, cross), (qt, _) = heads[a // low], tails[a % low]
                got.append(qh + qt + 2 * sum(map(mul, cross, box.evals(a)[split:])))
            assert got == expected


# multi-birth inputs of the packed flood test: two fixtures and two stars
PACKED_FLOOD_STARS = ("-2; 3/1 3/1 3/1 3/1", "-2; 2/1 5/2 7/3 4/1")


def test_packed_flood_matches_reference_sweep():
    """The packed flood's level tables are the all-neighbour reference
    sweep's on every multi-birth orbit of elliptic_a, elliptic_b and two
    stars, in both conventions."""
    forests = [elliptic_a(), elliptic_b()]
    forests += [seifert_to_plumbing(parse_sfs(text)).forest for text in PACKED_FLOOD_STARS]
    forests += [convert_convention(f).forest for f in forests]
    swept = 0
    for forest in forests:
        table = _GradedOrbitTable.of(forest, 10**8)
        for key, least in table.box.orbits().items():
            q0 = table.q(least)
            births = table.births(key, q0)
            if sum(births.values()) == 1:
                continue
            grading = reference_grading(table, CharVector(table.box.evals(least)))
            assert births == reference_birth_counts(grading)
            levels = hplus._sweep_levels(table, key, q0, births, 10**6)
            assert (levels, levels[-1].level) == reference_sweep_levels(grading, births, 10**6, 0)
            swept += 1
    assert swept == 18  # 1, 1, 1 and 6 per convention


def test_packed_flood_field_guard_raises_before_fields_overflow(monkeypatch):
    """With one-byte fields (bias 128), the star with a -70 leg needs
    isqrt(max limit) + 2 * 70 >= 128 at its first level: the guard raises,
    in the library and as exit 3 in the CLI, instead of returning a table
    from colliding points.  elliptic_a, whose fields stay below 16, still
    sweeps to the same table in one-byte fields.  The fields are narrowed
    here by unpacking bytes ("B") where the flood unpacks 32-bit words."""
    text = "-1; 3/1 4/1 70/1"
    forest = seifert_to_plumbing(parse_sfs(text)).forest
    (orbit,) = _flooding_orbits(forest)
    assert compute_hplus(forest, orbit).ker_u_rank > 1
    small = elliptic_a()
    tables = [compute_hplus(small, o) for o in _flooding_orbits(small)]
    monkeypatch.setattr(hplus, "_FIELD_BYTES", 1)
    monkeypatch.setattr(hplus, "Struct", lambda fmt: Struct(fmt.replace("I", "B")))
    with pytest.raises(EnumerationBudgetExceeded, match="8-bit point fields"):
        compute_hplus(forest, orbit)
    assert main(["sfs", "--sfs", text, "hplus"]) == 3
    assert [compute_hplus(small, o) for o in _flooding_orbits(small)] == tables
