"""Dense exact elimination kept as a differential oracle.

These eight routines are the general-matrix Bareiss, Schur-complement and
LDL^T eliminations that ``plumblat.intlinalg`` and
``plumblat.plumbing.intersection_form`` replaced with a leaf-first pass over
forest forms and one fraction-free Gauss-Jordan pass for definite matrices.
They work on any square integer (or rational) matrix, so the tests run the
new code against them.  :func:`reference_sublevel_points` is the ellipsoid
search on ``Fraction`` that the integer Fincke-Pohst walk replaced, with the
rational square-root bound it rounds by.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, Sequence

from plumblat.errors import EnumerationBudgetExceeded
from plumblat.intlinalg import GaussJordan, gauss_jordan
from plumblat.plumbing import Definiteness

Matrix = Sequence[Sequence[int]]

POSITIVE_DEFINITE = "positive_definite"
POSITIVE_SEMIDEFINITE = "positive_semidefinite"
INDEFINITE = "indefinite"


def _eliminate_below(a: list[list[int]], k: int, prev: int) -> None:
    """One fraction-free Bareiss step on pivot a[k][k]; prev is the last pivot."""
    pivot, row_k = a[k][k], a[k]
    for row_i in a[k + 1:]:
        aik = row_i[k]
        for j in range(k + 1, len(a)):
            row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev


def det_bareiss(rows: Matrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        _eliminate_below(a, k, prev)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_principal_minors(rows: Matrix) -> list[int]:
    """Minors det(A[:k,:k]) for k = 1..n from one Bareiss pass.

    Without row exchanges the k-th Bareiss pivot is the k-th leading minor
    (Sylvester's identity), so one O(n^3) pass yields them all.  A zero
    pivot is a zero minor; the minors past it are computed one by one.
    """
    a = [[int(x) for x in row] for row in rows]
    minors: list[int] = []
    prev = 1
    for k in range(len(a)):
        minors.append(a[k][k])
        if a[k][k] == 0:
            rest = range(k + 2, len(a) + 1)
            return minors + [det_bareiss([row[:j] for row in rows[:j]]) for j in rest]
        _eliminate_below(a, k, prev)
        prev = a[k][k]
    return minors


def adjugate(rows: Matrix) -> list[list[int]]:
    """Adjugate matrix, so that A * adj(A) = det(A) * I."""
    n = len(rows)
    if n == 0:
        return []
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det_bareiss(minor)
    return adj


def solve_exact(rows: Matrix, rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve A x = rhs exactly for invertible integer A."""
    det = det_bareiss(rows)
    if det == 0:
        raise ZeroDivisionError("matrix is singular")
    adj = adjugate(rows)
    n = len(rows)
    return [
        Fraction(sum(adj[i][j] * Fraction(rhs[j]) for j in range(n)), 1) / det
        for i in range(n)
    ]


def psd_classify(rows: Sequence[Sequence[int | Fraction]]) -> str:
    """Classify a symmetric rational matrix as PD, PSD or indefinite.

    Uses symmetric elimination: a positive pivot reduces to a Schur
    complement, a negative diagonal entry anywhere certifies indefiniteness,
    and an all-zero-diagonal remainder must vanish entirely for
    semidefiniteness.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    active = list(range(n))
    while active:
        pivot = None
        for i in active:
            if a[i][i] < 0:
                return INDEFINITE
            if a[i][i] > 0 and pivot is None:
                pivot = i
        if pivot is None:
            for i in active:
                for j in active:
                    if a[i][j] != 0:
                        return INDEFINITE
            return POSITIVE_SEMIDEFINITE
        active.remove(pivot)
        d = a[pivot][pivot]
        for i in active:
            f = a[i][pivot] / d
            if f:
                for j in active:
                    a[i][j] -= f * a[pivot][j]
    return POSITIVE_DEFINITE


def ldl_decompose(
    rows: Sequence[Sequence[int | Fraction]],
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """LDL^T factorization of a positive-definite symmetric rational matrix.

    Returns (L, d) with L unit lower triangular and d the positive diagonal.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    diag: list[Fraction] = []
    for k in range(n):
        d = a[k][k] - sum(diag[j] * lower[k][j] ** 2 for j in range(k))
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag.append(d)
        for i in range(k + 1, n):
            s = a[i][k] - sum(diag[j] * lower[i][j] * lower[k][j] for j in range(k))
            lower[i][k] = s / d
    return lower, diag


def invert_unit_lower(lower: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a unit lower triangular matrix."""
    n = len(lower)
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(lower[i][k] * inv[k][j] for k in range(j, i))
    return inv


def reference_min_eigenvalue_lower_bound(rows: Matrix) -> Fraction:
    """min(d) / |L^{-1}|_F^2 from :func:`ldl_decompose`, 1 for the empty matrix."""
    if not rows:
        return Fraction(1)
    lower, diag = ldl_decompose(rows)
    inv = invert_unit_lower(lower)
    return min(diag) / sum(v * v for row in inv for v in row)


def reference_form_certificate(matrix: Matrix) -> tuple[int, Definiteness]:
    """Determinant and definiteness of a symmetric integer matrix from its
    leading minors, falling back to :func:`psd_classify` of the negation."""
    minors = leading_principal_minors(matrix)
    det = minors[-1] if minors else 1
    if all((-1) ** (k + 1) * m > 0 for k, m in enumerate(minors)):
        return det, Definiteness.NEGATIVE_DEFINITE
    kind = psd_classify([[-x for x in row] for row in matrix])
    if kind == POSITIVE_SEMIDEFINITE:
        return det, Definiteness.NEGATIVE_SEMIDEFINITE
    if kind == POSITIVE_DEFINITE:
        return det, Definiteness.NEGATIVE_DEFINITE
    return det, Definiteness.INDEFINITE


def sqrt_upper_bound(value: Fraction) -> Fraction:
    """Rational upper bound for sqrt(value), value >= 0."""
    if value < 0:
        raise ValueError("negative radicand")
    num, den = value.numerator, value.denominator
    root = isqrt(num * den)
    if root * root < num * den:
        root += 1
    return Fraction(root, den)


def ldl_of(elimination: GaussJordan) -> tuple[list[list[Fraction]], list[Fraction]]:
    """L and D of A = L D L^T read off one Gauss-Jordan pass: L[i][k] =
    rows[k][i] / p_k below the diagonal and d_k = p_k / p_{k-1}."""
    minors, rows = elimination.minors, elimination.rows
    n = len(minors)
    lower = [
        [Fraction(rows[k][i], minors[k]) if i > k else Fraction(int(i == k)) for k in range(n)]
        for i in range(n)
    ]
    return lower, [Fraction(minors[k], minors[k - 1] if k else 1) for k in range(n)]


def reference_sublevel_points(
    matrix: Matrix,
    linear: Sequence[int],
    constant: int | Fraction,
    point_cap: int,
    scanned: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All integer x with x'Mx + b.x + c <= 0 for positive-definite M.

    Completes the square around the center -adj(M) b / (2 det M) and walks a
    Fincke-Pohst style recursion on the exact L D L^T of M, in the given
    variable order; every emitted point is re-verified against the exact
    inequality, so the rational square-root rounding can never admit or drop
    a point.  Raises EnumerationBudgetExceeded past ``point_cap`` scanned
    candidates; each scanned candidate appends 1 to ``scanned`` if given.
    """
    n = len(matrix)
    constant = Fraction(constant)
    if n == 0:
        if constant <= 0:
            yield ()
        return
    # the one pass, checked against ldl_decompose and adjugate above by
    # test_gauss_jordan_matches_oracle_on_pd_matrices; O(n^3), where the
    # dense adjugate took 40 s on the 63-vertex star (2 cores, CPython 3.11)
    elimination = gauss_jordan(matrix)
    minors, adj = elimination.minors, elimination.adjugate
    lower, diag = ldl_of(elimination)
    if any(d <= 0 for d in diag):
        raise ValueError("matrix is not positive definite")
    center = [
        -sum(a * Fraction(b) for a, b in zip(row, linear)) / (2 * minors[-1])
        for row in adj
    ]
    radius_sq = (
        sum(
            Fraction(matrix[i][j]) * center[i] * center[j]
            for i in range(n)
            for j in range(n)
        )
        - constant
    )
    if radius_sq < 0:
        return
    budget = [int(point_cap)]
    coords = [0] * n

    def spend() -> None:
        if scanned is not None:
            scanned.append(1)
        budget[0] -= 1
        if budget[0] < 0:
            raise EnumerationBudgetExceeded(
                f"quadratic sublevel enumeration exceeded {point_cap} candidates"
            )

    def recurse(i: int, remaining: Fraction) -> Iterator[tuple[int, ...]]:
        # z_i = (x_i - center_i) + sum_{j>i} L[j][i] (x_j - center_j)
        shift = sum(lower[j][i] * (coords[j] - center[j]) for j in range(i + 1, n))
        target = center[i] - shift
        half_width = sqrt_upper_bound(remaining / diag[i])
        lo_f = target - half_width
        lo = lo_f.numerator // lo_f.denominator  # floor; scan starts one below ceil
        hi_f = target + half_width
        hi = -((-hi_f.numerator) // hi_f.denominator)  # ceil
        for x in range(lo, hi + 1):
            spend()
            used = diag[i] * (x - target) ** 2
            if used > remaining:
                continue
            coords[i] = x
            if i == 0:
                yield tuple(coords)
            else:
                yield from recurse(i - 1, remaining - used)

    yield from recurse(n - 1, radius_sq)
