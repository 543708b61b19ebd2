"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Every tolerance is exact; the timed
criteria assert their stated wall-clock budgets.
"""

from __future__ import annotations

import random
import time

from conftest import FIXTURES, e8, elliptic_a, elliptic_b, lens, random_forest
from plumblat import (
    CharVector,
    blow_down,
    check_exactness,
    class_of,
    compute_homology,
    convert_convention,
    derived_dimensions,
    full_report,
    intersection_form,
    ker_u_cross_check,
    parse_dsl,
    parse_sfs,
    seifert_to_plumbing,
    surgery_triple,
    validate_forest,
)
from plumblat.charlattice import OrbitIndexer


def _report(num: int, label: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} ({label}): PASS  [{detail}]")


def test_criterion_01_lens_spaces():
    worst = 0.0
    for p in range(1, 21):
        start = time.perf_counter()
        result = compute_homology(lens(p))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert result.total_dim == p
        assert elapsed < 1.0
    _report(1, "lens spaces p=1..20", f"dims exact, worst {worst:.3f}s < 1s")


def test_criterion_02_e8():
    start = time.perf_counter()
    report = full_report(e8())
    elapsed = time.perf_counter() - start
    assert report.dim_h == 1
    assert abs(report.det) == 1
    assert report.bad_vertex_count == 1
    assert report.rational.rational
    assert report.dims.is_instanton_lspace
    assert elapsed < 1.0
    _report(2, "E8", f"dim 1, |det| 1, 1 bad vertex, rational, L-space, {elapsed:.3f}s < 1s")


def test_criterion_03_sign_relation():
    for p in range(1, 11):
        result = compute_homology(lens(p))
        lo = class_of(CharVector((-p,)), result)
        hi = class_of(CharVector((p,)), result)
        assert lo.index == hi.index
        assert lo.sign * hi.sign == (-1) ** p
    _report(3, "sign relation p=1..10", "k(-p) = (-1)^p k(p) exactly")


def test_criterion_04_elliptic_link_b():
    start = time.perf_counter()
    result = compute_homology(elliptic_b())
    dims = derived_dimensions(result.total_dim, result.det_abs, almost_rational_certified=True)
    elapsed = time.perf_counter() - start
    assert result.det_abs == 13
    assert result.total_dim == 14
    assert dims.dim_isharp == 15
    assert elapsed < 30.0
    _report(4, "elliptic link B", f"|det| 13, dim 14, I# 15, {elapsed:.3f}s < 30s")


def test_criterion_05_m038_fillings():
    expectations = {"m038_n1.sfs": 7, "m038_n2.sfs": 10}
    details = []
    for name, expected in expectations.items():
        start = time.perf_counter()
        data = parse_sfs((FIXTURES / name).read_text().strip())
        conversion = seifert_to_plumbing(data)
        result = compute_homology(conversion.forest)
        elapsed = time.perf_counter() - start
        assert 2 * result.total_dim - result.det_abs == expected
        assert elapsed < 30.0
        details.append(f"{name}: 2*{result.total_dim}-{result.det_abs}={expected}")
    _report(5, "m038 fillings", "; ".join(details))


def test_criterion_06_elliptic_link_a():
    report = full_report(elliptic_a())
    assert not report.rational.rational
    assert not report.dims.is_instanton_lspace
    assert report.dim_h > abs(report.det)
    _report(6, "elliptic link A", f"not rational, not L-space, dim {report.dim_h} > |det| {abs(report.det)}")


def test_criterion_07_oracle_equivalence():
    rng = random.Random(20260810)
    start = time.perf_counter()
    for trial in range(200):
        forest = random_forest(rng, max_vertices=6, lo=-5, hi=-1)
        report = ker_u_cross_check(forest)
        assert report.ok, (forest.framings, forest.edges, trial)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(7, "oracle equivalence x200", f"per-orbit dims = ker-U ranks, {elapsed:.1f}s < 600s")


def test_criterion_08_exactness_suite():
    rng = random.Random(515)
    count = 0
    while count < 100:
        forest = random_forest(rng, max_vertices=5, lo=-5, hi=-1)
        vid = forest.ids[rng.randrange(len(forest))]
        triple = surgery_triple(forest, vid)
        if not triple.valid:
            continue
        if compute_homology(forest).total_dim > 60:
            # keep the exact rank eliminations inside the time budget
            continue
        assert check_exactness(triple).exact, (forest.framings, forest.edges, vid)
        count += 1
    _report(8, "exactness suite", "100 random valid triples exact")


def test_criterion_09_blowdown_suite():
    rng = random.Random(909)
    count = 0
    while count < 100:
        base = random_forest(rng, max_vertices=5, lo=-5, hi=-1)
        ids = list(zip(base.ids, base.framings))
        edges = [(base.ids[a], base.ids[b]) for a, b in base.edges]
        if rng.random() < 0.5:
            anchor = base.ids[rng.randrange(len(base))]
            candidate = validate_forest(ids + [("x", -1)], edges + [(anchor, "x")])
        else:
            candidate = validate_forest(ids + [("x", -1)], edges)
        if not intersection_form(candidate).is_negative_definite:
            continue
        # blow_down verifies the signed class bijection and per-orbit
        # dimension preservation internally, raising on any failure
        result = blow_down(candidate, "x")
        assert result.source.total_dim == result.target.total_dim
        count += 1
    _report(9, "blow-down suite", "100 random blow-downs preserve all dimensions")


def _per_orbit_dims_match_after_flip(forest) -> bool:
    original = compute_homology(forest)
    conversion = convert_convention(
        forest, [oh.orbit.representative for oh in original.per_orbit]
    )
    flipped = compute_homology(conversion.forest)
    if flipped.total_dim != original.total_dim:
        return False
    indexer = OrbitIndexer(flipped.form)
    dims = {
        indexer.key(oh.orbit.representative): oh.dim for oh in flipped.per_orbit
    }
    return all(
        dims[indexer.key(moved)] == oh.dim
        for oh, moved in zip(original.per_orbit, conversion.vectors)
    )


def test_criterion_10_convention_suite():
    fixtures = [lens(p) for p in range(1, 9)]
    fixtures += [e8(), elliptic_a(), elliptic_b()]
    for name in ("m038_n1.sfs", "m038_n2.sfs"):
        data = parse_sfs((FIXTURES / name).read_text().strip())
        fixtures.append(seifert_to_plumbing(data).forest)
    for name in ("e8", "elliptic_a", "elliptic_b"):
        fixtures.append(parse_dsl((FIXTURES / f"{name}.plumb").read_text()))
    for forest in fixtures:
        assert _per_orbit_dims_match_after_flip(forest)
    rng = random.Random(1010)
    for _ in range(100):
        forest = random_forest(rng, max_vertices=6, lo=-5, hi=-1)
        assert _per_orbit_dims_match_after_flip(forest)
    _report(10, "convention suite", "fixtures + 100 random graphs dimension-invariant")


def test_criterion_11_lower_bound_invariant():
    """The engine itself enforces dim >= |det| (violations raise the
    internal-invariant error that the CLI maps to exit code 4); here the
    inequality is re-checked explicitly across a fresh random sweep."""
    rng = random.Random(1111)
    checked = [lens(p) for p in range(1, 21)] + [e8(), elliptic_a(), elliptic_b()]
    for _ in range(100):
        checked.append(random_forest(rng, max_vertices=6, lo=-5, hi=-1))
    for forest in checked:
        result = compute_homology(forest)
        assert result.total_dim >= result.det_abs
        assert all(oh.dim >= 1 for oh in result.per_orbit)
    _report(11, "lower-bound invariant", f"dim >= |det| on {len(checked)} graphs")
