"""Surgery triple maps, exactness, blow-downs, and convention transport."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from conftest import FIXTURES, e8, lens, random_forest
import oracle_moves
from oracle_charlattice import sign_normalization
from oracle_moves import (
    FormalSum,
    add_vertex_map,
    apply_linear,
    bump_framing_map,
    bump_framing_section,
    reference_exactness,
    slide_leaf_basis_change,
    reference_blowdown_pairing,
    truncate_to_box,
    unslide_leaf_basis_change,
)
from plumblat import (
    CharVector,
    EdgeSign,
    blow_down,
    check_exactness,
    compute_homology,
    convert_convention,
    intersection_form,
    parse_plumbing,
    surgery_triple,
    validate_forest,
)
from plumblat import homology, moves
from plumblat.errors import InternalInvariantViolation, InvalidTriple, NotBlowdownable
from plumblat.moves import project_to_classes


def test_extension_sum_single_vertex():
    triple = surgery_triple(lens(3), "v")
    out = add_vertex_map(CharVector(()), triple)
    assert [(c, k.evals) for c, k in out.terms] == [
        (1, (-3,)),
        (1, (-1,)),
        (1, (1,)),
        (1, (3,)),
    ]


def test_extension_sum_at_minus_one_leaf():
    forest = validate_forest([("a", -3), ("x", -1)], [("a", "x")])
    triple = surgery_triple(forest, "x")
    out = add_vertex_map(CharVector((1,)), triple)
    assert [(c, k.evals) for c, k in out.terms] == [(1, (1, -1)), (1, (1, 1))]


def test_extension_sum_linearity():
    triple = surgery_triple(lens(3), "v")
    k = CharVector(())
    doubled = apply_linear(
        lambda v: add_vertex_map(v, triple), FormalSum.of([(2, k)])
    )
    assert doubled == add_vertex_map(k, triple).scale(2)


def test_half_shift_map():
    triple = surgery_triple(lens(3), "v")
    out = bump_framing_map(CharVector((1,)), triple)
    assert [(c, k.evals) for c, k in out.terms] == [
        (Fraction(1, 2), (0,)),
        (Fraction(-1, 2), (2,)),
    ]


def test_integer_maps_carry_int_coefficients(rng):
    """Extension sums and sections stay over the integers; only the
    half-shift holds fractions."""
    count = 0
    while count < 10:
        forest = random_forest(rng, max_vertices=4)
        triple = surgery_triple(forest, forest.ids[rng.randrange(len(forest))])
        if not triple.valid:
            continue
        count += 1
        removed, bumped = compute_homology(triple.removed), compute_homology(triple.bumped)
        for cls in removed.classes:
            assert all(type(c) is int for c, _ in add_vertex_map(cls.representative, triple).terms)
        for cls in bumped.classes:
            terms = bump_framing_section(cls.representative, triple).terms
            assert all(type(c) is int for c, _ in terms)
        half = bump_framing_map(compute_homology(forest).classes[0].representative, triple).terms
        assert [type(c) for c, _ in half] == [Fraction, Fraction]


def test_formal_sum_equality_and_scale():
    k, k2 = CharVector((1, -1)), CharVector((3, -1))
    halves = FormalSum.of([(Fraction(1, 2), k), (Fraction(1, 2), k), (2, k2)])
    assert halves == FormalSum.of([(1, k), (2, k2)])
    assert halves.scale(Fraction(1, 2)) == FormalSum.of([(Fraction(1, 2), k), (1, k2)])
    assert FormalSum.of([(3, k)]).scale(2) == FormalSum.of([(Fraction(6), k)])
    assert [type(c) for c, _ in FormalSum.of([(3, k)]).scale(2).terms] == [int]
    assert FormalSum.of([(1, k), (Fraction(-1), k)]).is_zero()
    assert halves.scale(0).is_zero()
    assert (halves + halves.scale(-1)).is_zero()
    assert FormalSum.of([(2, k2), (1, k)]).terms == ((1, k), (2, k2))


def test_invalid_triple_still_computes_but_is_flagged():
    triple = surgery_triple(lens(1), "v")
    assert not triple.valid
    out = bump_framing_map(CharVector((1,)), triple)
    assert [(c, k.evals) for c, k in out.terms] == [
        (Fraction(1, 2), (0,)),
        (Fraction(-1, 2), (2,)),
    ]
    with pytest.raises(InvalidTriple):
        check_exactness(triple)


def test_composite_telescopes_to_nothing(rng):
    """The half-shift of the extension sum ends in out-of-range terms only."""
    for _ in range(20):
        forest = random_forest(rng, max_vertices=4)
        vid = forest.ids[rng.randrange(len(forest))]
        triple = surgery_triple(forest, vid)
        removed_form = intersection_form(triple.removed)
        from plumblat.charlattice import box_ranges
        from itertools import product as iproduct

        for evals in list(iproduct(*box_ranges(removed_form)))[:5]:
            composite = apply_linear(
                lambda v: bump_framing_map(v, triple),
                add_vertex_map(CharVector(evals), triple),
            )
            assert truncate_to_box(
                composite, intersection_form(triple.bumped)
            ).is_zero()


def test_section_formula():
    triple = surgery_triple(lens(3), "v")
    out = bump_framing_section(CharVector((0,)), triple)
    assert [(c, k.evals) for c, k in out.terms] == [(2, (1,)), (2, (3,))]
    out = bump_framing_section(CharVector((2,)), triple)
    assert [(c, k.evals) for c, k in out.terms] == [(2, (3,))]


def test_section_inverts_after_projection():
    triple = surgery_triple(lens(4), "v")
    bumped = compute_homology(triple.bumped)
    for cls in bumped.classes:
        lifted = bump_framing_section(cls.representative, triple)
        back = apply_linear(lambda v: bump_framing_map(v, triple), lifted)
        coords = project_to_classes(back, bumped)
        expected = project_to_classes(FormalSum.of([(1, cls.representative)]), bumped)
        assert coords == expected


def test_single_vertex_triples_exact():
    for p in range(2, 9):
        report = check_exactness(surgery_triple(lens(p), "v"))
        assert report.exact
        assert report.dims == (1, p, p - 1)


def test_e8_admits_no_valid_triple():
    """Bumping any framing of the unimodular graph leaves negative
    definiteness, so every triple is invalid there."""
    graph = e8()
    assert all(not surgery_triple(graph, v).valid for v in graph.ids)


def test_chain_triples_exact():
    chain = validate_forest(
        [("a", -3), ("b", -2), ("c", -3)], [("a", "b"), ("b", "c")]
    )
    for vid in chain.ids:
        triple = surgery_triple(chain, vid)
        assert triple.valid
        assert check_exactness(triple).exact


def test_random_triples_exact(rng):
    count = 0
    while count < 25:
        forest = random_forest(rng, max_vertices=5)
        vid = forest.ids[rng.randrange(len(forest))]
        triple = surgery_triple(forest, vid)
        if not triple.valid:
            continue
        if compute_homology(forest).total_dim > 60:
            continue  # keep exact rank computations inside the time budget
        assert check_exactness(triple).exact
        count += 1


def test_large_chain_triples_exact():
    """Chain triples far past the small-dimension cap of the random suites."""
    def chain(framings):
        names = [f"v{i}" for i in range(len(framings))]
        return validate_forest(list(zip(names, framings)), list(zip(names, names[1:])))

    for framings, dims in (
        ([-6] * 3, (35, 204, 169)),
        ([-4] * 4, (56, 209, 153)),
        ([-8] * 3, (63, 496, 433)),
    ):
        report = check_exactness(surgery_triple(chain(framings), "v0"))
        assert report.exact
        assert report.dims == dims


def test_exactness_matches_reference_engine(rng):
    """Sparse columns and the integer echelon give the dense engine's report,
    on small random triples and on ones with hundreds of classes."""
    small = large = 0
    while small < 30 or large < 3:
        if small < 30:
            forest, dims = random_forest(rng, max_vertices=5), range(61)
        else:
            forest, dims = random_forest(rng, max_vertices=3, lo=-6, hi=-4), range(100, 251)
        vid = forest.ids[rng.randrange(len(forest))]
        triple = surgery_triple(forest, vid)
        if not triple.valid:
            continue
        report = check_exactness(triple)
        if report.dims[1] not in dims:
            continue  # the dense reference is cubic in the dimension
        assert report == reference_exactness(triple), (forest.framings, forest.edges, vid)
        if small < 30:
            small += 1
        else:
            large += 1


def _drop_first_term(fn):
    return lambda k, triple: FormalSum(fn(k, triple).terms[1:])


def _shift_first_term(fn):
    def shifted(k, triple):
        (coeff, vec), *rest = fn(k, triple).terms
        vi = triple.vertex_index
        evals = vec.evals[:vi] + (vec.evals[vi] + 2,) + vec.evals[vi + 1:]
        return FormalSum.of([(coeff, CharVector(evals))] + rest)
    return shifted


def _vanish(fn):
    return lambda k, triple: FormalSum(())


def _drop_first_index(fn):
    return lambda box, root, vi, p: fn(box, root, vi, p)[1:]


def _shift_first_index(fn):
    """The first term moved one digit up at v (its evaluation up by 2); off
    the top of the box it is dropped, as ``class_of`` reads it as zero."""
    def shifted(box, root, vi, p):
        (coeff, a), *rest = fn(box, root, vi, p)
        d, same = box.splice(a, vi, box.radices[vi])
        return ([(coeff, same[d + 1])] if d + 1 < len(same) else []) + rest
    return shifted


def _vanish_index(fn):
    return lambda box, root, vi, p: []


# each formula map, its index-term function, and each mutant's index form
_INDEX_TERMS = {
    "add_vertex_map": "_extension_terms",
    "bump_framing_map": "_half_shift_terms",
    "bump_framing_section": "_section_terms",
}
_INDEX_BREAKERS = {
    _drop_first_term: _drop_first_index,
    _shift_first_term: _shift_first_index,
    _vanish: _vanish_index,
}


@pytest.mark.parametrize(
    "name, breaker, failing",
    [
        ("bump_framing_section", _drop_first_term, {"section_inverts_b"}),
        ("bump_framing_section", _shift_first_term, {"section_inverts_b"}),
        ("add_vertex_map", _drop_first_term, {"ba_zero"}),
        ("add_vertex_map", _shift_first_term, {"ba_zero"}),
        ("add_vertex_map", _vanish, {"ker_b_equals_im_a"}),
        ("bump_framing_map", _vanish,
         {"b_surjective", "ker_b_equals_im_a", "section_inverts_b"}),
    ],
)
def test_check_exactness_flags_broken_maps(monkeypatch, name, breaker, failing):
    """A map with a term dropped, shifted or lost makes exactly the checks it
    breaks go False, so no check is a constant True: the index columns take
    the mutant by box index, the dense reference engine the same mutant of
    the formula map, and the two reports agree."""
    terms = _INDEX_TERMS[name]
    monkeypatch.setattr(moves, terms, _INDEX_BREAKERS[breaker](getattr(moves, terms)))
    monkeypatch.setattr(oracle_moves, name, breaker(getattr(oracle_moves, name)))
    chain = validate_forest(
        [("a", -3), ("b", -2), ("c", -3)], [("a", "b"), ("b", "c")]
    )
    for triple in (surgery_triple(lens(4), "v"), surgery_triple(chain, "a")):
        report = check_exactness(triple)
        fields = {"b_surjective", "ba_zero", "ker_b_equals_im_a", "section_inverts_b"}
        assert {f for f in fields if not getattr(report, f)} == failing
        assert report == reference_exactness(triple)


@pytest.mark.parametrize("breaker", [None, _drop_first_index, _shift_first_index])
def test_check_exactness_ranks_2b_only_when_the_section_fails(monkeypatch, breaker):
    """(2B)S = 2I fixes rank(2B) = dim H(bumped), so on an exact triple only
    A's columns are ranked; with a broken section 2B's columns are ranked
    too, and B is still found onto."""
    ranked, rank = [], moves.rank_rational

    def counted(cols):
        ranked.append((type(cols), len(cols)))
        return rank(cols)

    monkeypatch.setattr(moves, "rank_rational", counted)
    if breaker:
        monkeypatch.setattr(moves, "_section_terms", breaker(moves._section_terms))
    chain = validate_forest(
        [("a", -3), ("b", -2), ("c", -3)], [("a", "b"), ("b", "c")]
    )
    for triple in (surgery_triple(lens(4), "v"), surgery_triple(chain, "a")):
        ranked.clear()
        report = check_exactness(triple)
        assert report.b_surjective and report.section_inverts_b == (breaker is None)
        removed, base, _ = report.dims
        assert ranked == ([(list, base)] if breaker else []) + [(list, removed)]


def _valid_triples(rng, count, edge_sign):
    """Seeded valid triples, cycling v over the first digit, the last digit
    and an interior digit of forests with at least three vertices."""
    found = 0
    while found < count:
        forest = random_forest(rng, max_vertices=5, edge_sign=edge_sign)
        n = len(forest)
        if n < 3:
            continue
        vi = (0, n - 1, rng.randrange(1, n - 1))[found % 3]
        triple = surgery_triple(forest, forest.ids[vi])
        if not triple.valid or compute_homology(forest).total_dim > 200:
            continue
        found += 1
        yield triple


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_index_columns_match_formula_maps(rng, edge_sign):
    """Every column of A, 2B and S built by box index is the projection of
    the formula map on the class representative (the half-shift doubled), so
    a wrong column cannot hide behind an exact sequence."""
    for triple in _valid_triples(rng, 24, edge_sign):
        h_removed, h_base, h_bumped = (
            compute_homology(g) for g in (triple.removed, triple.base, triple.bumped)
        )
        cols_a, cols_2b, cols_s = moves._exactness_columns(triple, h_removed, h_base, h_bumped)
        assert cols_a == [
            project_to_classes(add_vertex_map(cls.representative, triple), h_base)
            for cls in h_removed.classes
        ]
        assert cols_2b == [
            project_to_classes(bump_framing_map(cls.representative, triple).scale(2), h_bumped)
            for cls in h_base.classes
        ]
        assert cols_s == [
            project_to_classes(bump_framing_section(cls.representative, triple), h_base)
            for cls in h_bumped.classes
        ]
        assert all(type(c) is int for col in cols_2b for c in col.values())


def test_check_exactness_builds_no_vectors(monkeypatch):
    """The exactness check reads the class table by box index: it builds no
    CharVector or FormalSum and makes no class_of or project_to_classes call."""
    def refuse(*args, **kwargs):
        raise AssertionError("check_exactness left the index path")

    monkeypatch.setattr(homology, "class_of", refuse)
    monkeypatch.setattr(moves, "class_of", refuse)
    monkeypatch.setattr(moves, "project_to_classes", refuse)
    monkeypatch.setattr(FormalSum, "of", refuse)
    monkeypatch.setattr(CharVector, "__init__", refuse)
    chain = validate_forest(
        [("a", -3), ("b", -2), ("c", -3)], [("a", "b"), ("b", "c")]
    )
    for triple in (surgery_triple(lens(4), "v"), surgery_triple(chain, "b")):
        assert check_exactness(triple).exact


def _checked_blow_down(forest, leaf_id="x"):
    """``blow_down`` on ``forest``, checked against the reference pairing:
    class i goes to class i, and the call built no object view (which the
    reference then builds)."""
    result = blow_down(forest, leaf_id)
    for side in (result.source, result.target):
        assert not {"classes", "per_orbit"} & set(vars(side))
    assert result.source.total_dim == result.target.total_dim
    class_map, orbit_pairs = reference_blowdown_pairing(result, leaf_id)
    assert result.class_map == class_map
    assert all(src == dst and sign in (1, -1) for src, dst, sign in result.class_map)
    assert [src for src, _ in result.orbit_map] == list(range(len(result.source.per_orbit)))
    assert {src: {dst} for src, dst in result.orbit_map} == orbit_pairs
    return result


def test_blow_down_leaf():
    forest = validate_forest([("v", -2), ("x", -1)], [("v", "x")])
    result = _checked_blow_down(forest)
    assert result.forest.framings == (-1,)
    assert result.source.total_dim == result.target.total_dim == 1


def test_blow_down_isolated():
    forest = validate_forest([("a", -3), ("x", -1)])
    result = _checked_blow_down(forest)
    assert result.forest.ids == ("a",)
    assert result.source.total_dim == result.target.total_dim == 3
    beside = validate_forest([("x", -1), ("a", -2), ("b", -5)], [("a", "b")])
    assert _checked_blow_down(beside).class_map == tuple((i, i, -1) for i in range(9))


def test_blow_down_alone_leaves_the_empty_forest():
    """A (-1) vertex alone (the lens_1 fixture) blows down to the empty
    forest: one class, sent to the empty box's one class."""
    result = _checked_blow_down(parse_plumbing((FIXTURES / "lens_1.plumb").read_text()), "v")
    assert len(result.forest) == 0
    assert (result.class_map, result.orbit_map) == (((0, 0, -1),), ((0, 0),))


def test_blow_down_refuses_a_forged_target_table(monkeypatch):
    """A target class table with two class roots swapped breaks class i to
    class i, and ``blow_down`` raises instead of reporting a permutation."""
    forest = validate_forest([("v", -3), ("x", -1)], [("v", "x")])

    def forged(f, **kwargs):
        result = compute_homology(f, **kwargs)
        if len(f) == len(forest):
            return result
        (r0, i0), (r1, i1), *rest = result.root_refs.items()
        return dataclasses.replace(result, root_refs={r0: i1, r1: i0, **dict(rest)})

    assert _checked_blow_down(forest).class_map == ((0, 0, -1), (1, 1, -1))
    monkeypatch.setattr(moves, "compute_homology", forged)
    with pytest.raises(InternalInvariantViolation, match="sent class 0 to class 1"):
        blow_down(forest, "x")


def test_blow_down_rejections():
    graph = e8()
    for vid in graph.ids:
        with pytest.raises(NotBlowdownable):
            blow_down(graph, vid)
    interior = validate_forest(
        [("a", -2), ("x", -1), ("b", -2)], [("a", "x"), ("x", "b")]
    )
    with pytest.raises(NotBlowdownable):
        blow_down(interior, "x")


def test_blow_up_then_blow_down_returns_the_input(rng):
    """A (-1) leaf x hung at v, with m_v lowered by one, blows down to the
    input exactly: ids, framings, edges and edge sign, in both conventions,
    with x listed anywhere."""
    for edge_sign in EdgeSign:
        for _ in range(20):
            forest = random_forest(rng, max_vertices=5, edge_sign=edge_sign)
            v = rng.randrange(len(forest))
            vertices = list(zip(forest.ids, forest.framings))
            vertices[v] = (forest.ids[v], forest.framings[v] - 1)
            at = rng.randrange(len(vertices) + 1)
            edges = [(forest.ids[a], forest.ids[b]) for a, b in forest.edges]
            blown_up = validate_forest(
                vertices[:at] + [("x", -1)] + vertices[at:],
                edges + [(forest.ids[v], "x")],
                edge_sign,
            )
            down = blow_down(blown_up, "x").forest
            assert (down.ids, down.framings, down.edges, down.edge_sign) == (
                forest.ids, forest.framings, forest.edges, forest.edge_sign
            )


def test_blow_down_random_suite(rng):
    """The (-1) leaf is listed last, first or in between, in either edge
    convention.  Every ``class_map`` entry is (i, i, +-1), as
    :func:`~plumblat.moves.blow_down` proves; the orbit map is checked on
    permuted orbits, so a source orbit index is told from a target one."""
    count = permuted = 0
    while count < 40:
        base = random_forest(rng, max_vertices=5)
        ids = list(zip(base.ids, base.framings))
        edges = [(base.ids[a], base.ids[b]) for a, b in base.edges]
        if rng.random() < 0.5:
            edges.append((base.ids[rng.randrange(len(base))], "x"))
        at = (len(ids), 0, rng.randrange(len(ids) + 1))[count % 3]
        candidate = validate_forest(
            ids[:at] + [("x", -1)] + ids[at:], edges, rng.choice(list(EdgeSign))
        )
        if not intersection_form(candidate).is_negative_definite:
            continue
        result = _checked_blow_down(candidate)
        permuted += any(src != dst for src, dst in result.orbit_map)
        count += 1
    assert permuted >= 5


def test_slide_unslide_identity(rng):
    forest = validate_forest([("v", -3), ("x", -1)], [("v", "x")])
    for _ in range(30):
        k = CharVector((2 * rng.randint(-3, 3) + 1, 2 * rng.randint(-2, 2) + 1))
        assert unslide_leaf_basis_change(
            slide_leaf_basis_change(k, forest, "x"), forest, "x"
        ) == k


def test_convention_conversion_preserves_dimensions(rng):
    cases = [lens(1), e8()]
    for _ in range(15):
        cases.append(random_forest(rng, max_vertices=5))
    for forest in cases:
        original = compute_homology(forest)
        conv = convert_convention(
            forest, [oh.orbit.representative for oh in original.per_orbit]
        )
        flipped = compute_homology(conv.forest)
        assert flipped.total_dim == original.total_dim
        # pair orbits through the transported representatives
        from plumblat.charlattice import OrbitIndexer

        indexer = OrbitIndexer(flipped.form)
        dim_by_key = {
            indexer.key(oh.orbit.representative): oh.dim
            for oh in flipped.per_orbit
        }
        for oh, moved in zip(original.per_orbit, conv.vectors):
            assert dim_by_key[indexer.key(moved)] == oh.dim


def test_convention_single_vertex_is_identity():
    forest = lens(4)
    conv = convert_convention(forest, [CharVector((2,))])
    assert conv.vectors[0].evals == (2,)
    assert compute_homology(conv.forest).total_dim == 4


def test_convention_conversion_is_an_involution(rng):
    for _ in range(10):
        forest = random_forest(rng, max_vertices=5, require_negdef=False)
        vectors = [
            CharVector(tuple(m + 2 * rng.randint(-2, 2) for m in forest.framings))
        ]
        once = convert_convention(forest, vectors)
        twice = convert_convention(once.forest, once.vectors)
        assert twice.forest == forest
        assert twice.vectors[0] == vectors[0]


def test_sign_normalization_conjugates_reflections(rng):
    """For a reflection pair k ~ k' at vertex v, the normalizing signs
    compose to the framing parity, which is what removes the sign factor."""
    from itertools import product as iproduct

    from plumblat.charlattice import box_ranges

    for _ in range(10):
        forest = random_forest(rng, max_vertices=4)
        form = intersection_form(forest)
        box = list(iproduct(*box_ranges(form)))
        for evals in box:
            for i, m in enumerate(forest.framings):
                if evals[i] == m:
                    target = tuple(
                        evals[j] - 2 * form.matrix[i][j] for j in range(len(evals))
                    )
                elif evals[i] == -m:
                    target = tuple(
                        evals[j] + 2 * form.matrix[i][j] for j in range(len(evals))
                    )
                else:
                    continue
                if not all(
                    form.matrix[j][j] <= target[j] <= -form.matrix[j][j]
                    for j in range(len(target))
                ):
                    continue
                # base the orbit coordinates at k itself; the reflection
                # target stays in the same orbit
                k, t = CharVector(evals), CharVector(target)
                product_of_signs = sign_normalization(
                    k, k, form
                ) * sign_normalization(t, k, form)
                assert product_of_signs == (-1) ** m
