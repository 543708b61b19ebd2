"""Exact integer and rational linear algebra helpers.

Two eliminations serve the package.  Forest forms never reach this module:
their determinant and definiteness come from the leaf-first pass of
:func:`plumbing.intersection_form` (Neumann's plumbing calculus, Trans.
AMS 268, 1981), with no matrix and no leading minors.  Definite matrices go
through :func:`gauss_jordan`, one fraction-free Gauss-Jordan pass on
[A | I] in the given order, which yields the leading minors, A = L D L^T
and the adjugate at once.  Ranks come from a fraction-free echelon over
the integers.  Everything is exact: integers and
``fractions.Fraction`` only, and no floating point anywhere in the package.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, NamedTuple, Sequence

from .errors import EnumerationBudgetExceeded

Matrix = Sequence[Sequence[int]]


class GaussJordan(NamedTuple):
    """Leading minors, A = L D L^T (A symmetric) and adj(A)."""

    minors: list[int]
    lower: list[list[Fraction]]
    diag: list[Fraction]
    adjugate: list[list[int]]


def gauss_jordan(rows: Matrix) -> GaussJordan:
    """One fraction-free Gauss-Jordan pass on [A | I] in row order.

    Step k replaces every row r but row k by (p_k r - r[k] a[k]) / p_{k-1},
    an exact division (Bareiss), with p_k = a[k][k] the k-th leading minor.
    Row k at step k holds p_{k-1} times row k of D L^T in its left block,
    which gives L[i][k] = a[k][i] / p_k and d_k = p_k / p_{k-1}; at the end
    the right block is adj(A).  Raises ValueError if a leading minor
    vanishes.
    """
    n = len(rows)
    aug = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    minors: list[int] = []
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag: list[Fraction] = []
    prev = 1
    for k, pivot_row in enumerate(aug):
        pivot = pivot_row[k]
        if pivot == 0:
            raise ValueError(f"leading minor {k + 1} vanishes")
        minors.append(pivot)
        diag.append(Fraction(pivot, prev))
        for i in range(k + 1, n):
            lower[i][k] = Fraction(pivot_row[i], pivot)
        tail = pivot_row[k + 1:]
        for i, row in enumerate(aug):
            if i != k:
                f = row[k]
                row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return GaussJordan(minors, lower, diag, [row[n:] for row in aug])


def adjugate(rows: Matrix) -> list[list[int]]:
    """adj(A), with A adj(A) = det(A) I; A needs nonzero leading minors."""
    return gauss_jordan(rows).adjugate


def _positive_definite(rows: Matrix) -> GaussJordan:
    """:func:`gauss_jordan` of a positive-definite matrix; ValueError if not."""
    elimination = gauss_jordan(rows)
    if any(d <= 0 for d in elimination.diag):
        raise ValueError("matrix is not positive definite")
    return elimination


def rank_rational(rows: Sequence[Mapping[int, int]]) -> int:
    """Rank over the rationals of integer ``{column: value}`` rows.

    One fraction-free echelon over the integers: each row, stored zeros
    dropped, is reduced against the stored pivot rows, keyed by their
    leading column, by integer row operations that cancel its leading
    entry.  A row that reaches a new leading column is divided by its
    content and stored; the rank is the number of pivot rows.  The rows
    given are never written to.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = {j: v for j, v in row.items() if v}
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                content = gcd(*vec.values())
                pivots[lead] = {j: v // content for j, v in vec.items()}
                break
            g = gcd(pivot[lead], vec[lead])
            a, b = pivot[lead] // g, vec[lead] // g
            vec = {j: a * v for j, v in vec.items()}
            for j, v in pivot.items():
                w = vec.get(j, 0) - b * v
                if w:
                    vec[j] = w
                else:
                    del vec[j]
    return len(pivots)


def sqrt_upper_bound(value: Fraction) -> Fraction:
    """Rational upper bound for sqrt(value), value >= 0."""
    if value < 0:
        raise ValueError("negative radicand")
    num, den = value.numerator, value.denominator
    root = isqrt(num * den)
    if root * root < num * den:
        root += 1
    return Fraction(root, den)


def quadratic_sublevel_points(
    matrix: Matrix,
    linear: Sequence[int],
    constant: int | Fraction,
    point_cap: int,
) -> Iterator[tuple[int, ...]]:
    """All integer x with x'Mx + b.x + c <= 0 for positive-definite M.

    Completes the square around the center -adj(M) b / (2 det M) and walks a
    Fincke-Pohst style recursion on the exact L D L^T of M, both read off one
    :func:`gauss_jordan` pass in the given variable order; every emitted
    point is re-verified against the exact inequality, so the rational
    square-root rounding can never admit or drop a point.  Raises
    EnumerationBudgetExceeded past ``point_cap`` scanned candidates.
    """
    n = len(matrix)
    constant = Fraction(constant)
    if n == 0:
        if constant <= 0:
            yield ()
        return
    minors, lower, diag, adj = _positive_definite(matrix)
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
