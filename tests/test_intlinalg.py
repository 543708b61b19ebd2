"""Exact linear algebra against independent oracles.

The dense eliminations that ``plumblat.intlinalg`` no longer carries live in
``oracle_intlinalg``; the tests that exercised them on general matrices run
against that module, and the one Gauss-Jordan pass is checked against it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_intlinalg as oracle
from conftest import FIXTURES, e8, elliptic_a, elliptic_b
from oracle_moves import reference_rank
from plumblat import (
    intersection_form,
    intlinalg,
    parse_sfs,
    seifert_to_plumbing,
    validate_forest,
)
from plumblat.errors import EnumerationBudgetExceeded, InternalInvariantViolation
from plumblat.plumbing import EdgeSign, canonical_class


def det_gauss(rows):
    """Independent determinant oracle: plain Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                a[i] = [v - f * w for v, w in zip(a[i], a[k])]
    return det


small_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_bareiss_matches_gauss(rows):
    assert oracle.det_bareiss(rows) == det_gauss(rows)


def test_det_empty_matrix_is_one():
    assert oracle.det_bareiss([]) == 1


def test_leading_principal_minors():
    m = [[-2, -1, 0], [-1, -2, -1], [0, -1, -2]]
    assert oracle.leading_principal_minors(m) == [-2, 3, -4]
    assert intlinalg.gauss_jordan(m).minors == [-2, 3, -4]


def test_leading_minors_match_per_minor_definition(rng):
    """The one-pass minors equal det(A[:k,:k]) taken block by block, also
    when a leading block is singular and the pass has to stop early."""
    singular_seen = 0
    for trial in range(120):
        n = rng.randint(1, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        if trial % 3 == 0 and n >= 2:
            # make the leading k-block singular: row k-1 a multiple of row 0
            k = rng.randint(2, n)
            c = rng.choice((-2, -1, 1, 2))
            for j in range(k):
                rows[k - 1][j] = rows[j][k - 1] = c * rows[0][j]
            rows[k - 1][k - 1] = c * c * rows[0][0]
        want = [det_gauss([row[:k] for row in rows[:k]]) for k in range(1, n + 1)]
        singular_seen += 0 in want[:-1]
        assert oracle.leading_principal_minors(rows) == want, rows
    assert singular_seen >= 20


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_adjugate_identity(rows):
    n = len(rows)
    det = oracle.det_bareiss(rows)
    adj = oracle.adjugate(rows)
    for i in range(n):
        for j in range(n):
            entry = sum(rows[i][k] * adj[k][j] for k in range(n))
            assert entry == (det if i == j else 0)


def test_solve_exact():
    m = [[-2, -1], [-1, -3]]
    x = oracle.solve_exact(m, [1, 0])
    assert [sum(Fraction(m[i][j]) * x[j] for j in range(2)) for i in range(2)] == [1, 0]


def test_psd_classify_cases():
    assert oracle.psd_classify([[2, 0], [0, 3]]) == oracle.POSITIVE_DEFINITE
    assert oracle.psd_classify([[1, 1], [1, 1]]) == oracle.POSITIVE_SEMIDEFINITE
    assert oracle.psd_classify([[0, 1], [1, 0]]) == oracle.INDEFINITE
    assert oracle.psd_classify([[1, 0], [0, -1]]) == oracle.INDEFINITE
    assert oracle.psd_classify([[0, 0], [0, 0]]) == oracle.POSITIVE_SEMIDEFINITE
    assert oracle.psd_classify([]) == oracle.POSITIVE_DEFINITE


def _random_pd(rng, n):
    """B^T B + I for random integer B is positive definite."""
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return [
        [sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)]
        for i in range(n)
    ]


def test_ldl_reconstructs(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        m = _random_pd(rng, n)
        lower, diag = oracle.ldl_decompose(m)
        for i in range(n):
            for j in range(n):
                entry = sum(
                    diag[k] * lower[i][k] * lower[j][k] for k in range(n)
                )
                assert entry == m[i][j]


def test_ldl_rejects_indefinite():
    with pytest.raises(ValueError):
        oracle.ldl_decompose([[1, 0], [0, -1]])


def test_gauss_jordan_matches_oracle_on_pd_matrices(rng):
    """Leading minors, L, D and adj(A) of one pass equal the dense routines,
    entry for entry."""
    for _ in range(400):
        m = _random_pd(rng, rng.randint(1, 7))
        elimination = intlinalg.gauss_jordan(m)
        lower, diag = oracle.ldl_decompose(m)
        assert elimination.minors == oracle.leading_principal_minors(m)
        assert oracle.ldl_of(elimination) == (lower, diag)
        assert elimination.adjugate == oracle.adjugate(m)
        assert intlinalg.adjugate(m) == elimination.adjugate


def test_gauss_jordan_on_general_matrices(rng):
    """Unsymmetric and indefinite matrices with nonzero leading minors get
    the oracle's minors and adjugate; a vanishing leading minor raises."""
    tried = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        minors = oracle.leading_principal_minors(m)
        if 0 in minors:
            with pytest.raises(ValueError):
                intlinalg.gauss_jordan(m)
            continue
        tried += 1
        elimination = intlinalg.gauss_jordan(m)
        assert elimination.minors == minors
        assert elimination.adjugate == oracle.adjugate(m)
    assert tried > 300
    assert intlinalg.gauss_jordan([]) == ([], [], [])


def test_positive_definite_callers_reject_other_matrices():
    for m in ([[-2]], [[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 1], [1, 1]]):
        with pytest.raises(ValueError):
            list(intlinalg.quadratic_sublevel_points(m, [0] * len(m), -1, 100))


def test_min_eigenvalue_bound_is_a_lower_bound(rng):
    """The reference eigenvalue bound behind the coordinate oracle's ball."""
    for _ in range(30):
        n = rng.randint(1, 4)
        m = _random_pd(rng, n)
        lam = oracle.reference_min_eigenvalue_lower_bound(m)
        assert lam > 0
        for _ in range(40):
            x = [rng.randint(-5, 5) for _ in range(n)]
            q = sum(m[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            norm_sq = sum(v * v for v in x)
            assert q >= lam * norm_sq


def _integer_row(row):
    """A dense rational row times the lcm of its denominators, as an integer
    ``{column: value}`` row that keeps its zeros."""
    scale = lcm(*(Fraction(v).denominator for v in row))
    return {j: int(v * scale) for j, v in enumerate(row)}


def test_rank_rational():
    assert intlinalg.rank_rational([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert intlinalg.rank_rational([{0: 1, 1: 0}, {0: 0, 1: 1}]) == 2
    assert intlinalg.rank_rational([{0: 0, 1: 0}, {0: 0, 1: 0}]) == 0
    assert intlinalg.rank_rational([]) == 0


def _planted_rank_matrix(rng):
    """Rows spanned by at most ``basis`` random rational rows, plus zero rows."""
    ncols = rng.randint(1, 9)
    basis = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.6 else 0
         for _ in range(ncols)]
        for _ in range(rng.randint(0, min(ncols, 5)))
    ]
    rows = []
    for _ in range(rng.randint(0, 10)):
        if basis and rng.random() < 0.85:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ncols)])
        else:
            rows.append([0] * ncols)
    rng.shuffle(rows)
    return rows, len(basis)


def test_rank_matches_reference(rng):
    """The integer echelon agrees with Gauss-Jordan over Q on the rows
    scaled to integers, with and without their zeros; planted dependencies
    cap the rank."""
    fixed = [
        ([], 0),
        ([[0, 0, 0], [Fraction(0), 0, 0]], 0),
        ([[Fraction(1, 2), 1], [1, 2]], 1),
        ([[Fraction(1, 3), 0], [0, Fraction(-2, 7)], [1, 1]], 2),
    ]
    for rows, rank in fixed:
        assert reference_rank(rows) == rank
    reached = 0
    for rows, bound in fixed + [_planted_rank_matrix(rng) for _ in range(400)]:
        expected = reference_rank(rows)
        assert expected <= bound
        reached += 0 < expected == bound
        with_zeros = [_integer_row(row) for row in rows]
        assert intlinalg.rank_rational(with_zeros) == expected
        sparse = [{j: v for j, v in row.items() if v} for row in with_zeros]
        assert intlinalg.rank_rational(sparse) == expected
    assert reached > 100


@given(st.fractions(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_sqrt_upper_bound(value):
    bound = oracle.sqrt_upper_bound(value)
    assert bound * bound >= value


def _brute_sublevel(matrix, linear, constant, window):
    n = len(matrix)
    out = set()

    def f(x):
        quad = sum(matrix[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        lin = sum(linear[i] * x[i] for i in range(n))
        return quad + lin + constant

    from itertools import product

    for x in product(range(-window, window + 1), repeat=n):
        if f(x) <= 0:
            out.add(x)
    return out


def test_quadratic_sublevel_points_match_brute_force(rng):
    for _ in range(25):
        n = rng.randint(1, 3)
        m = _random_pd(rng, n)
        linear = [rng.randint(-4, 4) for _ in range(n)]
        constant = rng.randint(-20, 2)
        got = set(intlinalg.quadratic_sublevel_points(m, linear, constant, 10**6))
        expected = _brute_sublevel(m, linear, constant, 30)
        assert got == expected


def test_quadratic_sublevel_budget():
    with pytest.raises(EnumerationBudgetExceeded):
        list(intlinalg.quadratic_sublevel_points([[1]], [0], -10**6, 10))


def _chi_ellipsoid(forest):
    """The search ``classify.is_rational`` runs: {chi <= 0} as M, b, c."""
    form = intersection_form(forest.with_edge_sign(EdgeSign.PLUS_ONE))
    negated = [[-x for x in row] for row in form.matrix]
    return negated, [-e for e in canonical_class(forest).evals], 0


def _classify_search_forests():
    """The forests of the classify-search benchmark, each also lowered by one
    at every vertex, and the stars -2; 2/1 3/1 p/(p-1) for p = 9..61."""
    star = [("c", -1), ("p", -2), ("q", -3), ("r", -7)]
    twice = validate_forest(
        [(k + v, m) for k in "ab" for v, m in star],
        [(k + "c", k + leg) for k in "ab" for leg in "pqr"],
    )
    forests = [twice, e8(), elliptic_a(), elliptic_b()]
    forests += [
        seifert_to_plumbing(parse_sfs((FIXTURES / name).read_text().strip())).forest
        for name in ("m038_n1.sfs", "m038_n2.sfs")
    ]
    forests += [f.with_framing(i, f.framings[i] - 1) for f in list(forests) for i in range(len(f))]
    forests += [
        seifert_to_plumbing(parse_sfs(f"-2; 2/1 3/1 {p}/{p - 1}")).forest for p in range(9, 62)
    ]
    return forests


def _sublevel_cases(rng):
    """(M, b, c) triples: seeded random ellipsoids with int and rational
    constants, empty ones, single points, and the classify-search inputs."""
    cases = []
    for trial in range(320):
        n = 1 + trial % 8
        m = _random_pd(rng, n)
        linear = [rng.randint(-6, 6) for _ in range(n)]
        kind = trial % 4
        if kind == 0:
            constant = rng.randint(-30, 3)
        elif kind == 1:
            constant = Fraction(rng.randint(-90, 9), rng.randint(2, 9))
        elif kind == 2:  # empty: c beyond the least value of the quadratic
            constant = rng.randint(10**4, 10**5)
        else:  # radius 0: (x - y)'M(x - y) <= 0 holds at y alone
            y = [rng.randint(-3, 3) for _ in range(n)]
            my = [sum(a * b for a, b in zip(row, y)) for row in m]
            linear = [-2 * v for v in my]
            constant = sum(a * b for a, b in zip(y, my))
        cases.append((m, linear, constant))
    cases += [([], [], 0), ([], [], Fraction(1, 3)), ([], [], Fraction(-1, 3))]
    cases += [_chi_ellipsoid(forest) for forest in _classify_search_forests()]
    return cases


def test_sublevel_points_match_fraction_reference(rng):
    """The integer walk emits the points of the rational enumeration in the
    same order, and scans no more candidates: it finishes under a cap equal
    to the reference's count."""
    singles = empties = 0
    for m, linear, constant in _sublevel_cases(rng):
        scanned = []
        expected = list(oracle.reference_sublevel_points(m, linear, constant, 10**6, scanned))
        got = list(intlinalg.quadratic_sublevel_points(m, linear, constant, len(scanned)))
        assert got == expected, (m, linear, constant)
        singles += len(got) == 1
        empties += not got
    assert singles >= 80 and empties >= 80, (singles, empties)


@pytest.mark.parametrize("fault", ["last entry", "window"])
def test_sublevel_walk_rejects_a_broken_invariant(monkeypatch, fault):
    """x^2 - 3 <= 0 with the last entry of the elimination (det G) off by
    one, or with a window one wider than the exact one: the integer walk
    raises instead of emitting a wrong point."""
    assert list(intlinalg.quadratic_sublevel_points([[1]], [0], -3, 100)) == [(-1,), (0,), (1,)]
    if fault == "last entry":
        bareiss = intlinalg._bareiss

        def broken(aug, steps, *, above):
            out = bareiss(aug, steps, above=above)
            aug[-1][-1] -= 1
            return out

        monkeypatch.setattr(intlinalg, "_bareiss", broken)
    else:
        monkeypatch.setattr(intlinalg, "isqrt", lambda v: math.isqrt(v) + 1)
    with pytest.raises(InternalInvariantViolation):
        list(intlinalg.quadratic_sublevel_points([[1]], [0], -3, 100))
