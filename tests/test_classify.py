"""Rationality, the decrement search, and the assembled report."""

from __future__ import annotations

import json
import random
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
from plumblat import classify, intlinalg, plumbing
from plumblat.classify import RationalityVerdict, certify_almost_rational
from plumblat.cli import main
from plumblat.errors import EXIT_BUDGET, EnumerationBudgetExceeded
from plumblat.plumbing import EdgeSign, PlumbingForest


def _disjoint(
    *forests: PlumbingForest,
    rng: random.Random | None = None,
    edge_sign: EdgeSign = EdgeSign.MINUS_ONE,
) -> PlumbingForest:
    """The disjoint union; with ``rng``, its vertex and edge lines shuffled,
    so that the components interleave in vertex order."""
    vertices, edges = [], []
    for j, forest in enumerate(forests):
        vertices += [(f"s{j}{vid}", m) for vid, m in zip(forest.ids, forest.framings)]
        edges += [(f"s{j}{forest.ids[a]}", f"s{j}{forest.ids[b]}") for a, b in forest.edges]
    if rng is not None:
        rng.shuffle(vertices)
        rng.shuffle(edges)
    return validate_forest(vertices, edges, edge_sign)


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
    """Seeded forests, drawn until 100 in each edge convention are rational:
    the walk calls a forest rational iff the box engine gives dim |det|, and
    then one class on every orbit, which lets ``full_report`` read |det|."""
    rational = {EdgeSign.MINUS_ONE: 0, EdgeSign.PLUS_ONE: 0}
    while min(rational.values()) < 100:
        sign = rng.choice(list(rational))
        forest = random_forest(rng, edge_sign=sign)
        result = compute_homology(forest)
        assert is_rational(forest).rational == (result.total_dim == result.det_abs)
        if result.total_dim == result.det_abs:
            assert [orbit.dim for orbit in result.per_orbit] == [1] * result.det_abs
            rational[sign] += 1


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


class _BoxBuilt(Exception):
    pass


def test_rational_report_builds_no_box(monkeypatch):
    """A rational forest's dim_h is |det|, read off the walk: the box
    engine is never reached, even on a 203-vertex star whose box would
    hold 10^96 vectors.  A failing forest reaches it once."""
    calls = []

    def stub(forest, **kwargs):
        calls.append(forest)
        raise _BoxBuilt

    monkeypatch.setattr(classify, "compute_homology", stub)
    star = seifert_to_plumbing(parse_sfs("-2; 2/1 3/1 201/200")).forest
    for forest, dim in ((e8(), 1), (lens(5), 5), (star, 207)):
        report = full_report(forest)
        assert report.rational.rational
        assert report.dim_h == abs(report.det) == dim
        assert report.dims.is_instanton_lspace and not report.dims.conjectural
    assert not calls
    with pytest.raises(_BoxBuilt):
        full_report(elliptic_a())
    assert len(calls) == 1


def test_decrement_search_walks_the_failing_component_alone(monkeypatch):
    """Two failing components are unknown after the first walk, with no
    probe; with one, every probe walks that component and no other."""
    calls = []
    original = classify._laufer_walk

    def recording(forest):
        walk = original(forest)

        def probe(framings, point_cap, *components):
            calls.append(components)
            return walk(framings, point_cap, *components)

        return probe

    monkeypatch.setattr(classify, "_laufer_walk", recording)
    assert is_almost_rational(_TWO_SIGMA237, nmax=16).status == "unknown"
    assert calls == [()]
    calls.clear()
    assert is_almost_rational(_disjoint(e8(), elliptic_a()), nmax=16).certified
    assert calls[0] == () and len(calls) > 1
    assert all(components == ([list(range(8, 14))],) for components in calls[1:])


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
        (_TWO_SIGMA237, 16, 2),  # one per star; no single decrement cures both: unknown
        (elliptic_a(), 64, 1),
        (_star(-2, [-3] * 5), 64, 1),  # cured two decrements deep
        (e8(), 64, 0),  # rational
        (lens(5), 64, 0),  # rational
    ],
)
def test_full_report_enumerates_the_forest_once(monkeypatch, forest, nmax, enumerations):
    """The ellipsoid is enumerated only for the printed witness, once per
    component that the walk finds non-rational: never in a rational report."""
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
    """Neither the verdicts nor the witness build an intersection form: a
    failing component's +1 matrix is read off its framings and edges.  Only
    the box engine of a full report builds the form."""

    def refuse(forest):
        raise AssertionError("intersection_form called")

    original = plumbing.intersection_form
    for name, module in list(sys.modules.items()):
        if name.startswith("plumblat") and name != "plumblat.homology":
            if vars(module).get("intersection_form") is original:
                monkeypatch.setattr(module, "intersection_form", refuse)
    star = seifert_to_plumbing(parse_sfs("-2; 2/1 3/1 201/200")).forest
    assert is_rational(star).rational
    assert is_almost_rational(star).decrement == 0
    report = full_report(e8())
    assert report.rational.rational and report.det == 1
    assert is_rational(elliptic_a()).witness.coords == (2, 2, 1, 1, 1, 1)
    report = full_report(_TWO_SIGMA237, nmax=16)
    assert report.rational.witness.coords == (0, 0, 0, 0, 2, 1, 1, 1)


def test_full_report_derives_definiteness_twice(monkeypatch):
    """One non-rational report reads det and definiteness once for itself
    and once in the box engine; the witness search takes its verdict."""
    calls = []
    original = plumbing.definiteness

    def counting(forest):
        calls.append(forest)
        return original(forest)

    for name, module in list(sys.modules.items()):
        if name.startswith("plumblat") and vars(module).get("definiteness") is original:
            monkeypatch.setattr(module, "definiteness", counting)
    report = full_report(elliptic_a())
    assert not report.rational.rational
    assert len(calls) == 2


def test_two_stars_answer_at_point_cap_36(tmp_path, capsys):
    """Each star's ellipsoid is enumerated on its own and needs 36 candidates
    for its least witness; the joint walk over both needed 500."""
    path = tmp_path / "stars.plumb"
    path.write_text(
        "".join(f"vertex {vid} {m}\n" for vid, m in zip(_TWO_SIGMA237.ids, _TWO_SIGMA237.framings))
        + "".join(f"edge {_TWO_SIGMA237.ids[a]} {_TWO_SIGMA237.ids[b]}\n" for a, b in _TWO_SIGMA237.edges)
    )
    assert main(["classify", "--json", "--point-cap", "36", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["rational_witness"] == [0, 0, 0, 0, 2, 1, 1, 1]
    assert main(["classify", "--json", "--point-cap", "35", str(path)]) == EXIT_BUDGET
    with pytest.raises(EnumerationBudgetExceeded):
        full_report(_TWO_SIGMA237, nmax=16, point_cap=35)


def _non_rational_pool(rng: random.Random, size: int) -> list[PlumbingForest]:
    """Seeded random forests of at most 6 vertices that the reference finds
    non-rational: trees with framings -3 and -2, and forests down to -1."""
    pool: list[PlumbingForest] = []
    while len(pool) < size:
        if len(pool) % 2:
            forest = random_forest(rng, max_vertices=6, lo=-3, hi=-2, edge_probability=1.0)
        else:
            forest = random_forest(rng, max_vertices=6, lo=-3, hi=-1)
        if not reference_is_rational(forest).rational:
            pool.append(forest)
    return pool


def test_interleaved_unions_match_reference(rng):
    """On disjoint unions of 2-3 seeded negative-definite forests, with
    their vertex lines shuffled so that components interleave, in both
    conventions: the witness is the reference's least one, and the
    decrement search (unknown on two failing components) the reference's
    per-decrement loop.  Each part is drawn from a pool of non-rational
    forests or at random, so unions with two or three failing parts occur."""
    pool = _non_rational_pool(rng, 12)
    counts = {"non_rational": 0, "two_failing": 0, "unknown": 0, "cured": 0, "skips": 0}
    for k in range(160):
        parts = [
            rng.choice(pool) if rng.random() < 0.5 else random_forest(rng, max_vertices=4, lo=-3)
            for _ in range(rng.choice((2, 3)))
        ]
        sign = EdgeSign.PLUS_ONE if k % 2 else EdgeSign.MINUS_ONE
        union = _disjoint(*parts, rng=rng, edge_sign=sign)
        try:
            expected = reference_is_rational(union, REFERENCE_POINT_CAP)
            nmaxes = (1,) if expected.rational else (1, 3)
            verdicts = {n: reference_almost_rational(union, n, REFERENCE_POINT_CAP) for n in nmaxes}
        except EnumerationBudgetExceeded:
            counts["skips"] += 1
            continue
        assert is_rational(union) == expected, union
        for nmax, verdict in verdicts.items():
            assert is_almost_rational(union, nmax=nmax) == verdict, (union, nmax)
        counts["non_rational"] += not expected.rational
        counts["two_failing"] += sum(part in pool for part in parts) >= 2
        counts["unknown"] += verdicts[nmaxes[-1]].status == "unknown"
        counts["cured"] += not expected.rational and verdicts[nmaxes[-1]].certified
    assert counts["non_rational"] >= 100 and counts["two_failing"] >= 40, counts
    assert counts["unknown"] >= 40 and counts["cured"] >= 20 and counts["skips"] <= 10, counts


def _chain(framings: list[int]) -> PlumbingForest:
    return validate_forest(
        [(f"v{i}", m) for i, m in enumerate(framings)],
        [(f"v{i}", f"v{i + 1}") for i in range(len(framings) - 1)],
    )


def test_rational_parts_only_pad_the_witness(rng):
    """Adding E8 or a lens chain before or after a non-rational forest, in
    either convention, leaves its witness as it was, with zeros added on the
    new vertices."""
    forests = [elliptic_a(), elliptic_b(), _star(-1, [-2, -3, -7]), _f10()]
    forests += _non_rational_pool(rng, 8)
    for forest in forests:
        coords = is_rational(forest).witness.coords
        for extra in (e8(), _chain([-3, -2, -2, -4]), lens(5)):
            pad = (0,) * len(extra)
            for sign in EdgeSign:
                before = is_rational(_disjoint(extra, forest, edge_sign=sign))
                after = is_rational(_disjoint(forest, extra, edge_sign=sign))
                assert before.witness.coords == pad + coords, (forest, extra)
                assert after.witness.coords == coords + pad, (forest, extra)
