"""Rationality, the decrement search, and the assembled report."""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from conftest import e8, elliptic_a, elliptic_b, lens, random_forest, random_zero_bad_forest
from oracle_classify import reference_almost_rational
from oracle_hplus import rational_via_hplus
from plumblat import (
    canonical_class,
    chi,
    compute_homology,
    full_report,
    intersection_form,
    is_almost_rational,
    is_rational,
    validate_forest,
)
from plumblat import intlinalg
from plumblat.classify import DEFAULT_RATIONALITY_POINT_CAP, _decrement_search
from plumblat.errors import InternalInvariantViolation
from plumblat.plumbing import EdgeSign, PlumbingForest


def _disjoint(*forests: PlumbingForest) -> PlumbingForest:
    vertices, edges = [], []
    for j, forest in enumerate(forests):
        vertices += [(f"s{j}{vid}", m) for vid, m in zip(forest.ids, forest.framings)]
        edges += [(f"s{j}{forest.ids[a]}", f"s{j}{forest.ids[b]}") for a, b in forest.edges]
    return validate_forest(vertices, edges)


def _star(center: int, legs: list[int]) -> PlumbingForest:
    """Center with one-vertex legs; (-1; -2, -3, -7) bounds Sigma(2,3,7)."""
    vertices = [("c", center)] + [(f"l{j}", m) for j, m in enumerate(legs)]
    return validate_forest(vertices, [("c", f"l{j}") for j in range(len(legs))])


def test_single_vertices_rational():
    for p in range(1, 9):
        assert is_rational(lens(p)).rational


def test_e8_rational():
    verdict = is_rational(e8())
    assert verdict.rational
    assert verdict.witness is None


def test_elliptic_a_not_rational_with_witness():
    verdict = is_rational(elliptic_a())
    assert not verdict.rational
    witness = verdict.witness
    assert witness is not None
    assert all(c >= 0 for c in witness.coords) and any(witness.coords)
    plus = intersection_form(elliptic_a().with_edge_sign(EdgeSign.PLUS_ONE))
    assert chi(witness, canonical_class(elliptic_a()), plus) <= 0


def test_almost_rational_verdicts():
    assert is_almost_rational(e8()) == type(is_almost_rational(e8()))(
        status="yes", vertex="v1", decrement=0
    )
    ar = is_almost_rational(elliptic_a())
    assert ar.status == "yes"
    ar_mod = is_almost_rational(elliptic_b())
    assert ar_mod.status == "yes"


def test_one_bad_vertex_graphs_are_almost_rational(rng):
    found = 0
    while found < 15:
        forest = random_forest(rng, max_vertices=5)
        from plumblat import bad_vertices

        if len(bad_vertices(forest)) != 1:
            continue
        assert is_almost_rational(forest).status == "yes"
        found += 1


def test_zero_bad_vertex_graphs_are_rational(rng):
    for _ in range(25):
        forest = random_zero_bad_forest(rng)
        if not intersection_form(forest).is_negative_definite:
            continue
        assert is_rational(forest).rational


def test_rational_iff_hplus_shape(rng):
    for _ in range(30):
        forest = random_forest(rng, max_vertices=5)
        assert is_rational(forest).rational == rational_via_hplus(forest)


def test_rational_iff_minimal_dimension(rng):
    for _ in range(30):
        forest = random_forest(rng, max_vertices=5)
        result = compute_homology(forest)
        assert is_rational(forest).rational == (result.total_dim == result.det_abs)


def test_decrement_monotonicity(rng):
    """Once a decrement reaches rationality, one step more keeps it."""
    checked = 0
    while checked < 8:
        forest = random_forest(rng, max_vertices=4)
        if is_rational(forest).rational:
            continue
        ar = is_almost_rational(forest, nmax=16)
        if ar.status != "yes":
            continue
        i = forest.index_of(ar.vertex)
        deeper = forest.with_framing(i, forest.framings[i] - ar.decrement - 1)
        assert is_rational(deeper).rational
        checked += 1


def test_full_report_lens7():
    report = full_report(lens(7))
    assert report.negdef
    assert report.bad_vertex_count == 0
    assert report.rational.rational
    assert report.dim_h == 7
    assert report.dims.is_instanton_lspace
    assert report.dims.dim_isharp == 7
    assert not report.dims.conjectural


def test_full_report_e8():
    report = full_report(e8())
    assert report.rational.rational
    assert report.bad_vertex_count == 1
    assert report.dim_h == 1
    assert report.dims.is_instanton_lspace
    assert report.floer_equivalence_certified


def test_full_report_elliptic_a():
    report = full_report(elliptic_a())
    assert report.bad_vertex_count == 2
    assert report.bad_vertices == ("a", "b")
    assert not report.rational.rational
    assert report.almost_rational.status == "yes"
    assert report.dim_h == 5 and abs(report.det) == 4
    assert not report.dims.is_instanton_lspace


def test_full_report_not_negdef():
    report = full_report(validate_forest([("a", 1)]))
    assert not report.negdef
    assert report.rational is None
    assert report.dim_h is None
    assert report.dims is None


def test_bad_center_star_is_not_negative_definite():
    """Center -1 with four -3 legs overshoots: the form is indefinite, so the
    report carries no homology fields at all."""
    star = validate_forest(
        [("c", -1)] + [(f"l{i}", -3) for i in range(4)],
        [("c", f"l{i}") for i in range(4)],
    )
    report = full_report(star)
    assert not report.negdef
    assert report.bad_vertices == ("c",)
    assert report.dim_h is None


def test_unknown_verdict_on_double_elliptic():
    """Two disjoint non-rational components cannot be cured by one framing
    decrement, so the search honestly reports unknown at its cutoff."""
    from conftest import elliptic_a

    single = elliptic_a()
    ids = list(zip(single.ids, single.framings))
    edges = [(single.ids[a], single.ids[b]) for a, b in single.edges]
    double = validate_forest(
        [(n + "1", m) for n, m in ids] + [(n + "2", m) for n, m in ids],
        [(x + "1", y + "1") for x, y in edges]
        + [(x + "2", y + "2") for x, y in edges],
    )
    verdict = is_almost_rational(double, nmax=3)
    assert verdict.status == "unknown"
    assert verdict.cutoff == 3


def test_report_invariant_rational_implies_minimal(rng):
    for _ in range(10):
        forest = random_forest(rng, max_vertices=4)
        report = full_report(forest, nmax=8)
        if report.rational.rational:
            assert report.dim_h == abs(report.det)
        if report.bad_vertex_count <= 1:
            assert report.almost_rational.status == "yes"


def test_decrement_search_matches_reference(rng):
    """The read-off search gives the per-decrement loop's verdict exactly:
    on random forests, on Sigma(2,3,7)-type stars, and on disjoint unions of
    two non-rational forests, which no single decrement cures (unknown).
    The loop costs nmax * n enumerations on an unknown, so only the
    cheapest union goes up to nmax = 16."""
    sigma237 = _star(-1, [-2, -3, -7])
    stars = [sigma237]
    stars += [_star(-1, legs) for legs in ([-2, -3, -11], [-2, -5, -5], [-3, -3, -4])]
    # more legs need deeper decrements at the center: 2, 3 and 2
    stars += [_star(-1, [-5] * 4), _star(-1, [-6] * 5), _star(-2, [-3] * 5)]
    forests = [e8(), elliptic_a(), elliptic_b(), _disjoint(lens(3), stars[4])] + stars
    forests += [random_forest(rng, max_vertices=6, lo=-4) for _ in range(30)]
    cases = [(forest, (1, 3, 16)) for forest in forests]
    cases += [
        (_disjoint(sigma237, sigma237), (1, 3)),
        (_disjoint(stars[2], stars[3]), (1, 3, 16)),
        (_disjoint(elliptic_a(), stars[3]), (1, 3)),
    ]
    statuses = set()
    for forest, nmaxes in cases:
        for nmax in nmaxes:
            verdict = is_almost_rational(forest, nmax=nmax)
            assert verdict == reference_almost_rational(forest, nmax), (forest, nmax)
            statuses.add((verdict.status, verdict.decrement))
    assert {("yes", 0), ("yes", 1), ("yes", 2), ("yes", 3), ("unknown", None)} <= statuses


@pytest.mark.parametrize(
    "forest, nmax, enumerations",
    [
        # no single decrement cures two disjoint stars: only the forest's own
        (_disjoint(_star(-1, [-2, -3, -7]), _star(-1, [-2, -3, -7])), 16, 1),
        # the forest's own, and the confirmation of the chosen lowered forest
        (elliptic_a(), 64, 2),
        # the same when the cure is two decrements deep
        (_star(-2, [-3] * 5), 64, 2),
    ],
)
def test_full_report_enumerates_the_forest_once(monkeypatch, forest, nmax, enumerations):
    """The decrement search reads lowered forests off the forest's own
    enumeration; only a yes costs one more, to confirm it."""
    calls = []
    original = intlinalg.quadratic_sublevel_points

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("plumblat") and vars(module).get("quadratic_sublevel_points") is original:
            monkeypatch.setattr(module, "quadratic_sublevel_points", counting)
    report = full_report(forest, nmax=nmax)
    assert report.almost_rational.status == ("unknown" if enumerations == 1 else "yes")
    assert len(calls) == enumerations


@pytest.mark.parametrize("shift", [1, -100])
def test_decrement_search_certificates_catch_wrong_chi(shift):
    """A witness table whose chi values are off picks a wrong decrement: too
    small fails the confirming enumeration, too large fails the blocking
    witness re-evaluated on its lowered forest."""
    forest = _star(-2, [-3] * 5)  # cured at the center by 2
    rationality = is_rational(forest)
    wrong = [(pt, min(value + shift, 0)) for pt, value in rationality.witnesses]
    tampered = replace(rationality, witnesses=tuple(wrong))
    with pytest.raises(InternalInvariantViolation):
        _decrement_search(forest, tampered, 16, DEFAULT_RATIONALITY_POINT_CAP)
