"""Exact integer linear algebra helpers.

Two eliminations serve the package.  Forest forms never reach this module:
their determinant and definiteness come from the leaf-first pass of
:func:`plumbing.intersection_form` (Neumann's plumbing calculus, Trans.
AMS 268, 1981), with no matrix and no leading minors.  Definite matrices go
through one fraction-free (Bareiss) elimination in the given order: on
[A | I] as a Gauss-Jordan pass it yields the leading minors, the pivot rows
(A = L D L^T) and the adjugate; on a matrix bordered by the linear and
constant terms of a quadratic, run forward only, it drives the ellipsoid
search.  Ranks come from a fraction-free echelon over the integers.  The
module uses integers only: no rationals and no floating point.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, isqrt
from numbers import Rational
from typing import Iterator, NamedTuple, Sequence

from .errors import EnumerationBudgetExceeded, InternalInvariantViolation

Matrix = Sequence[Sequence[int]]


class GaussJordan(NamedTuple):
    """Leading minors p_k, pivot rows and adj(A).

    From column k on, ``rows[k]`` is p_{k-1} times row k of D L^T when A =
    L D L^T is symmetric: L[i][k] = rows[k][i] / p_k and d_k = p_k / p_{k-1}.
    """

    minors: list[int]
    rows: list[list[int]]
    adjugate: list[list[int]]


def _bareiss(aug: list[list[int]], steps: int, *, above: bool) -> tuple[list[int], list[list[int]]]:
    """Bareiss elimination of the first ``steps`` columns, in place.

    Step k replaces every row r below row k, and every row above it too if
    ``above``, by (p_k r - r[k] a[k]) / p_{k-1}, an exact division (Bareiss),
    with p_k = a[k][k] the k-th leading minor.  Returns the p_k and a copy of
    row k as it stood at step k.  Raises ValueError if a leading minor
    vanishes.
    """
    minors: list[int] = []
    pivot_rows: list[list[int]] = []
    prev = 1
    for k in range(steps):
        pivot_row = aug[k]
        pivot = pivot_row[k]
        if pivot == 0:
            raise ValueError(f"leading minor {k + 1} vanishes")
        minors.append(pivot)
        pivot_rows.append(pivot_row[:])
        tail = pivot_row[k + 1:]
        for row in aug[:k] + aug[k + 1:] if above else aug[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return minors, pivot_rows


def gauss_jordan(rows: Matrix) -> GaussJordan:
    """One fraction-free Gauss-Jordan pass on [A | I] in row order.

    At the end the right block is adj(A).  Raises ValueError if a leading
    minor vanishes.
    """
    n = len(rows)
    aug = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    minors, pivot_rows = _bareiss(aug, n, above=True)
    return GaussJordan(minors, [row[:n] for row in pivot_rows], [row[n:] for row in aug])


def adjugate(rows: Matrix) -> list[list[int]]:
    """adj(A), with A adj(A) = det(A) I; A needs nonzero leading minors."""
    return gauss_jordan(rows).adjugate


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


def quadratic_sublevel_points(
    matrix: Matrix,
    linear: Sequence[int],
    constant: Rational,
    point_cap: int,
) -> Iterator[tuple[int, ...]]:
    """All integer x with Q(x) = x'Mx + b.x + c <= 0 for positive-definite M.

    An integer Fincke-Pohst search (Math. Comp. 44, 1985).  The constant c
    is any rational (an ``int`` or a ``fractions`` value); with c = a/q,
    2q Q(x) = [x;1]' G [x;1] for G = [[2qM, qb], [qb', 2a]]; one forward
    Bareiss pass over the n variables of G gives pivots p_i > 0, pivot rows
    R_i and the last entry W_n = det G.  The walk fixes x_{n-1} first.  At
    level i, u_i = p_i x_i + R_i[n] + sum_{j>i} R_i[j] x_j must satisfy
    u_i^2 <= -p_{i-1} W_{i+1} (p_{-1} = 1), an exact integer window, and
    W_i = (u_i^2 + p_{i-1} W_{i+1}) / p_i is p_{i-1} times the completed
    square left over, an integer.  W_0 = 2q Q(x), so every emitted point is
    re-verified; a remainder or a positive W_i raises
    InternalInvariantViolation.  Points come in lexicographic order of
    (x_{n-1}, ..., x_0).  Raises ValueError if M is not positive definite,
    and EnumerationBudgetExceeded past ``point_cap`` scanned candidates.
    """
    n = len(matrix)
    a, q = constant.numerator, constant.denominator
    bordered = [[2 * q * x for x in row] + [q * b] for row, b in zip(matrix, linear)]
    bordered.append([q * b for b in linear] + [2 * a])
    pivots, rows = _bareiss(bordered, n, above=False)
    if any(p <= 0 for p in pivots):
        raise ValueError("matrix is not positive definite")
    top = bordered[n][n]
    if top > 0:
        return
    if n == 0:
        yield ()
        return
    prev = [1] + pivots  # prev[i] = p_{i-1}
    budget = int(point_cap)
    coords = [0] * n

    def walk(i: int, w: int) -> Iterator[tuple[int, ...]]:
        nonlocal budget
        room = -prev[i] * w
        row, pivot = rows[i], pivots[i]
        s = row[n] + sum(row[j] * coords[j] for j in range(i + 1, n))
        r = isqrt(room)
        for x in range(-((r + s) // pivot), (r - s) // pivot + 1):
            budget -= 1
            if budget < 0:
                raise EnumerationBudgetExceeded(
                    f"quadratic sublevel enumeration exceeded {point_cap} candidates"
                )
            u = pivot * x + s
            w_i, rest = divmod(u * u - room, pivot)
            if rest or w_i > 0:
                raise InternalInvariantViolation(
                    f"ellipsoid level {i}: ({u}^2 - {room}) / {pivot} is not a nonpositive integer"
                )
            coords[i] = x
            if i:
                yield from walk(i - 1, w_i)
            else:
                yield tuple(coords)

    yield from walk(n - 1, top)
