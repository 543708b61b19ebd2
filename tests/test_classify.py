"""Rationality, the decrement search, and the assembled report."""

from __future__ import annotations

import sys
import time
import tracemalloc

import pytest

from conftest import e8, elliptic_a, elliptic_b, lens, random_forest, random_zero_bad_forest
from oracle_classify import reference_almost_rational, reference_is_rational
from oracle_hplus import rational_via_hplus
from plumblat import (
    bad_vertices,
    canonical_class,
    chi,
    compute_homology,
    full_report,
    intersection_form,
    is_almost_rational,
    is_rational,
    parse_sfs,
    seifert_to_plumbing,
    validate_forest,
)
from plumblat import classify, intlinalg
from plumblat.classify import RationalityVerdict, certify_almost_rational
from plumblat.errors import EnumerationBudgetExceeded
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


def _f10() -> PlumbingForest:
    """A seeded random forest (10 vertices, |det| 144, one bad vertex v1)
    whose ellipsoid {chi <= 0} outgrows the default point cap, though its
    least witness comes 65 candidates into the reversed walk."""
    framings = [-3, -2, -4, -2, -2, -3, -2, -4, -4, -2]
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (1, 7), (7, 8), (1, 9)]
    return validate_forest(
        [(f"v{i}", m) for i, m in enumerate(framings)],
        [(f"v{a}", f"v{b}") for a, b in edges],
    )


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
    for _ in range(10_000):  # 8 are found in about 4,000 draws
        if checked == 8:
            break
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
    assert checked == 8


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
        assert report.rational == is_rational(forest)
        if report.rational.rational:
            assert report.dim_h == abs(report.det)
        if report.bad_vertex_count <= 1:
            assert report.almost_rational.status == "yes"


def test_rational_report_walks_once(monkeypatch):
    """The decrement search walks the given framings first, so a rational
    report takes its verdict from that walk: one walk, no ``is_rational``."""
    walks = []
    original = classify._laufer_walk

    def counting(forest):
        walks.append(forest)
        return original(forest)

    def refuse(*args, **kwargs):
        raise AssertionError("is_rational called on a rational forest")

    monkeypatch.setattr(classify, "_laufer_walk", counting)
    monkeypatch.setattr(classify, "is_rational", refuse)
    report = full_report(e8())
    assert len(walks) == 1
    assert report.rational == RationalityVerdict(rational=True)


REFERENCE_POINT_CAP = 2 * 10**4


def test_decrement_search_matches_reference(rng):
    """The walk gives the definition's verdict, and the bisection the
    per-decrement loop's verdict, exactly: on random forests, on
    Sigma(2,3,7)-type stars, on disjoint unions of two non-rational forests,
    which no single decrement cures (unknown), and on 2,000 seeded forests
    in both conventions, half of them trees with framings -3 and -2.  The
    loop costs nmax * n enumerations on an unknown, so only the cheapest
    union goes up to nmax = 16; a seeded forest whose reference enumeration
    passes REFERENCE_POINT_CAP candidates is skipped and counted."""
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
    for k in range(2000):
        trees = k % 4 >= 2
        forest = random_forest(
            rng,
            max_vertices=10,
            lo=-3,
            hi=-2 if trees else -1,
            edge_probability=1.0 if trees else 0.7,
            edge_sign=EdgeSign.PLUS_ONE if k % 2 else EdgeSign.MINUS_ONE,
        )
        cases.append((forest, (1, 3, 16)))
    statuses = set()
    skips = non_rational = two_bad = 0
    for forest, nmaxes in cases:
        try:
            expected = reference_is_rational(forest, REFERENCE_POINT_CAP)
            verdicts = {
                nmax: reference_almost_rational(forest, nmax, REFERENCE_POINT_CAP)
                for nmax in (nmaxes if not expected.rational else nmaxes[:1])
            }
        except EnumerationBudgetExceeded:
            skips += 1
            continue
        assert is_rational(forest) == expected, forest
        for nmax, verdict in verdicts.items():
            assert is_almost_rational(forest, nmax=nmax) == verdict, (forest, nmax)
            statuses.add((verdict.status, verdict.decrement))
        non_rational += not expected.rational
        two_bad += not expected.rational and len(bad_vertices(forest)) >= 2
    assert {("yes", 0), ("yes", 1), ("yes", 2), ("yes", 3), ("unknown", None)} <= statuses
    assert non_rational >= 100 and two_bad >= 50 and skips <= 20, (non_rational, two_bad, skips)


def _count_enumerations(monkeypatch) -> list[int]:
    calls: list[int] = []
    original = intlinalg.quadratic_sublevel_points

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("plumblat") and vars(module).get("quadratic_sublevel_points") is original:
            monkeypatch.setattr(module, "quadratic_sublevel_points", counting)
    return calls


_TWO_SIGMA237 = _disjoint(_star(-1, [-2, -3, -7]), _star(-1, [-2, -3, -7]))


@pytest.mark.parametrize(
    "forest, nmax, enumerations",
    [
        (_TWO_SIGMA237, 16, 1),  # no single decrement cures two stars: unknown
        (elliptic_a(), 64, 1),
        (_star(-2, [-3] * 5), 64, 1),  # cured two decrements deep
        (e8(), 64, 0),  # rational
        (lens(5), 64, 0),  # rational
    ],
)
def test_full_report_enumerates_the_forest_once(monkeypatch, forest, nmax, enumerations):
    """The ellipsoid is enumerated only by ``is_rational`` on a forest that
    its walk finds non-rational, for the printed witness: once in a
    non-rational report, never in a rational one."""
    calls = _count_enumerations(monkeypatch)
    report = full_report(forest, nmax=nmax)
    assert len(calls) == enumerations
    assert report.rational.rational == (enumerations == 0)
    assert report.almost_rational == is_almost_rational(forest, nmax=nmax)


@pytest.mark.parametrize(
    "forest", [_TWO_SIGMA237, elliptic_a(), _star(-2, [-3] * 5), _f10(), e8()]
)
def test_almost_rational_verdicts_never_enumerate(monkeypatch, forest):
    """Neither the almost-rational verdict nor the homology it certifies
    enumerates the ellipsoid, rational or not."""
    calls = _count_enumerations(monkeypatch)
    is_almost_rational(forest, nmax=16)
    certify_almost_rational(forest, nmax=16)
    compute_homology(forest)
    assert not calls


def test_f10_almost_rational_without_enumerating():
    """F10's ellipsoid held 1.3 GiB before the default cap stopped it; the
    walk cures it at v1 by 2 in milliseconds."""
    start = time.perf_counter()
    verdict = is_almost_rational(_f10(), nmax=64)
    assert time.perf_counter() - start < 1.0
    assert (verdict.status, verdict.vertex, verdict.decrement) == ("yes", "v1", 2)


_F10_WITNESS = (0, 2, 1, 1, 0, 0, 0, 1, 0, 1)


def test_f10_witness_search_streams_in_bounded_memory():
    """Past the walk, the witness search stops at the first nonzero
    nonnegative point of the reversed walk, the lexicographically least:
    on F10 within a cap of 100 candidates, with its peak under 1 MiB."""
    tracemalloc.start()
    try:
        verdict = is_rational(_f10(), point_cap=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.rational
    assert verdict.witness.coords == _F10_WITNESS
    assert peak < 2**20, peak


def test_f10_full_report_answers_in_seconds():
    """F10's report, which once stopped at the default point cap, prints the
    least witness, the almost-rational cure at v1 by 2 and dim 710."""
    start = time.perf_counter()
    report = full_report(_f10())
    assert time.perf_counter() - start < 2.0
    assert not report.rational.rational
    assert report.rational.witness.coords == _F10_WITNESS
    ar = report.almost_rational
    assert (ar.status, ar.vertex, ar.decrement) == ("yes", "v1", 2)
    assert report.dim_h == 710


def test_e8_walk_counts_each_step_against_the_cap():
    """The walk to Z_min of E8, the highest root (2, 3, 4, 6, 5, 4, 3, 2 up to
    order), takes sum Z_min = 29 steps, the start included."""
    with pytest.raises(EnumerationBudgetExceeded):
        is_rational(e8(), point_cap=28)
    assert is_rational(e8(), point_cap=29).rational
    twice = _disjoint(e8(), e8())
    with pytest.raises(EnumerationBudgetExceeded):
        is_rational(twice, point_cap=57)
    assert is_rational(twice, point_cap=58).rational


def test_walk_checks_every_component():
    """A rational component first, then a non-rational one."""
    assert not is_rational(_disjoint(e8(), elliptic_a())).rational
    assert not is_rational(_disjoint(lens(2), _star(-1, [-2, -3, -7]))).rational


def test_long_star_rationality_takes_milliseconds():
    """The 203-vertex star -2; 2/1 3/1 201/200 is rational by a walk of
    linear length; the ellipsoid route took 0.44 s on it."""
    star = seifert_to_plumbing(parse_sfs("-2; 2/1 3/1 201/200")).forest
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert is_rational(star).rational
        best = min(best, time.perf_counter() - start)
    assert best < 0.05, best


def test_rational_verdict_builds_no_matrix(monkeypatch):
    """A rational forest passes the definiteness check and the walk, and its
    full report, without an intersection form; only a failed walk builds the
    +1 form."""
    from plumblat import classify

    def refuse(forest):
        raise AssertionError("intersection_form called")

    star = seifert_to_plumbing(parse_sfs("-2; 2/1 3/1 201/200")).forest
    monkeypatch.setattr(classify, "intersection_form", refuse)
    assert is_rational(star).rational
    assert is_almost_rational(star).decrement == 0
    report = full_report(e8())
    assert report.rational.rational and report.det == 1
    with pytest.raises(AssertionError, match="intersection_form called"):
        is_rational(elliptic_a())
