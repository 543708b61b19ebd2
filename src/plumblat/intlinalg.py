"""Exact integer linear algebra helpers.

Four eliminations serve the package.  Forest forms never reach this module
for their determinant and definiteness: those come from the leaf-first pass
of :func:`plumbing.definiteness` (Neumann's plumbing calculus, Trans.
AMS 268, 1981), with no matrix and no leading minors.  Definite matrices go
through one fraction-free (Bareiss) Gauss-Jordan pass in the given order:
on [A | I] it leaves the adjugate in the right block; on a matrix bordered
by the linear and constant terms of a quadratic, the same pass gives the
pivots and pivot rows that drive the ellipsoid search.  The Smith normal
form, which the orbit keys read, comes from a sparse unimodular
elimination.  Ranks come from a fraction-free echelon over the integers.
The parity vector that carries the quotient's signs comes from one
Gauss-Jordan pass over F_2 on rows held as int bitmasks.
The module uses integers only: no rationals and no floating point.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, isqrt
from operator import mul
from typing import Iterator, Sequence

from .errors import EnumerationBudgetExceeded, InternalInvariantViolation

Matrix = Sequence[Sequence[int]]


def _bareiss(aug: list[list[int]], steps: int) -> list[list[int]]:
    """Fraction-free Gauss-Jordan elimination of the first ``steps``
    columns, in place.

    Step k replaces every other row r by (p_k r - r[k] a[k]) / p_{k-1}, an
    exact division (Bareiss), with p_k = a[k][k] the k-th leading minor.
    Row k at step k, and every row past ``steps``, have only been updated
    as rows below a pivot.  Returns a copy of each row k as it stood at
    step k, so p_k is its entry k.  Raises ValueError if a leading minor
    vanishes.
    """
    pivot_rows: list[list[int]] = []
    prev = 1
    for k in range(steps):
        pivot_row = aug[k]
        pivot = pivot_row[k]
        if pivot == 0:
            raise ValueError(f"leading minor {k + 1} vanishes")
        pivot_rows.append(pivot_row[:])
        tail = pivot_row[k + 1:]
        for row in aug[:k] + aug[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return pivot_rows


def adjugate(rows: Matrix) -> list[list[int]]:
    """adj(A), with A adj(A) = det(A) I: the right block of [A | I] after
    one fraction-free Gauss-Jordan pass in row order.  Raises ValueError if
    a leading minor vanishes."""
    n = len(rows)
    aug = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    _bareiss(aug, n)
    return [row[n:] for row in aug]


def smith_form(rows: Matrix) -> tuple[list[int], list[list[int]]]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix A, and the
    rows of a unimodular U with U A V = D = diag(d_i) for some unimodular V.

    One d_i and one row of U per row of A; a zero d_i stands for a free
    summand of Z^m / A Z^n.  Rows of A are sparse ``{column: value}`` dicts
    and only U is kept (Cohen, GTM 138, Alg. 2.4.14, without V).  Each step
    pivots on an entry of least absolute value, on the shortest such row,
    or on the first unit found on a row of at most two entries: on a tree
    form that is a leaf's unit edge entry, whose elimination moves the
    leaf's column onto its neighbour's rows and adds no entry.  Row
    operations, applied to U as well, reduce the pivot's column mod the
    pivot; once it is clear, the pivot's row meets no other live row in
    that column, so column operations reduce that row alone.  A nonzero
    remainder becomes the next pivot.  The cleared row leaves with its
    pivot.  A last pass over the factors other than 1 turns each pair
    (a, b) into (gcd, lcm) with the Bezout rows x a + y b = g:
    [[x, y], [-b/g, a/g]] diag(a, b) [[1, -y b/g], [1, x a/g]]
    = diag(g, ab/g).
    """
    a = [{j: x for j, x in enumerate(row) if x} for row in rows]
    m = len(a)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    live, factors = set(range(m)), []
    while live:
        pick = _pivot(a, live)
        if pick is None:  # the live rows are zero
            factors += [(0, i) for i in sorted(live)]
            break
        i, j = pick
        while True:
            x, remainders = a[i][j], []
            for k in live:  # clear column j by row operations
                row = a[k]
                if k != i and j in row:
                    q = row[j] // x
                    if q:  # row k -= q row i, in A and in U
                        for c, y in a[i].items():
                            z = row.get(c, 0) - q * y
                            if z:
                                row[c] = z
                            else:
                                del row[c]
                        u[k] = [p - q * s for p, s in zip(u[k], u[i])]
                    if j in row:
                        remainders.append((abs(row[j]), k))
            if remainders:
                i = min(remainders)[1]
                continue
            row = a[i]  # column j is clear off row i: reduce row i alone
            for c in [c for c in row if c != j]:
                if row[c] % x:
                    row[c] %= x
                else:
                    del row[c]
            if len(row) > 1:
                j = min((abs(y), c) for c, y in row.items() if c != j)[1]
                continue
            break
        live.remove(i)
        factors.append((abs(x), i))  # V takes the sign
    units = [(d, u[i]) for d, i in factors if d == 1]
    others = sorted(((d, u[i]) for d, i in factors if d != 1), key=lambda f: (f[0] == 0, f[0]))
    for p in range(len(others)):
        for q in range(p + 1, len(others)):
            (d, r), (e, s) = others[p], others[q]
            if d == 0 or e % d == 0:
                continue
            g, x, y = _bezout(d, e)
            others[p] = g, [x * c + y * t for c, t in zip(r, s)]
            others[q] = d // g * e, [d // g * t - e // g * c for c, t in zip(r, s)]
    factors = units + others
    return [d for d, _ in factors], [row for _, row in factors]


def _pivot(a: list[dict[int, int]], live) -> tuple[int, int] | None:
    """(row, column) of an entry of least absolute value, on the shortest
    such row, or of the first unit on a row of at most two entries (a
    leaf's, on a tree form); None if the live rows are zero."""
    best = None
    for i in live:
        row = a[i]
        for j, x in row.items():
            rank = abs(x), len(row)
            if best is None or rank < best[0]:
                best = rank, i, j
                if rank <= (1, 2):
                    return i, j
    return best and best[1:]


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """g = gcd(a, b) and x, y with x a + y b = g, for a, b > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return a, x0, y0


def parity_vector(rows: Sequence[int]) -> list[int]:
    """A 0/1 vector c with A c = diag(A) mod 2, for a symmetric integer A
    given mod 2 as int bitmasks: bit j of ``rows[i]`` is a_ij mod 2, and
    bit n = len(rows) is a_ii mod 2, the right-hand side.

    It exists: x . A x = sum a_ii x_i^2 = diag(A) . x mod 2, so diag(A)
    is orthogonal to the kernel of A mod 2, which for symmetric A is the
    orthogonal complement of its image.  Gauss-Jordan elimination over F_2;
    each pivot row is kept clear of the other pivot columns, and free
    unknowns are 0.  Raises ValueError if there is no solution, which
    needs an unsymmetric A.
    """
    n = len(rows)
    pivots: list[tuple[int, int]] = []  # (pivot column, its reduced row)
    for bits in rows:
        for col, pivot in pivots:
            if bits >> col & 1:
                bits ^= pivot
        if not bits:
            continue
        col = (bits & -bits).bit_length() - 1  # no pivot column is left in bits
        if col == n:
            raise ValueError("A c = diag(A) has no solution mod 2")
        pivots = [(c, p ^ bits if p >> col & 1 else p) for c, p in pivots]
        pivots.append((col, bits))
    c = [0] * n
    for col, pivot in pivots:
        c[col] = pivot >> n & 1
    return c


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
    constant: int,
    point_cap: int,
) -> Iterator[tuple[int, ...]]:
    """All integer x with Q(x) = x'Mx + b.x + c <= 0 for positive-definite M.

    An integer Fincke-Pohst search (Math. Comp. 44, 1985).  With
    2 Q(x) = [x;1]' G [x;1] for G = [[2M, b], [b', 2c]], one Bareiss
    pass over the n variables of G gives pivots p_i > 0, pivot rows
    R_i and the last entry W_n = det G.  The walk fixes x_{n-1} first.  At
    level i, u_i = p_i x_i + R_i[n] + sum_{j>i} R_i[j] x_j must satisfy
    u_i^2 <= -p_{i-1} W_{i+1} (p_{-1} = 1), an exact integer window, and
    W_i = (u_i^2 + p_{i-1} W_{i+1}) / p_i is p_{i-1} times the completed
    square left over, an integer.  W_0 = 2 Q(x), so every emitted point is
    re-verified; a remainder or a positive W_i raises
    InternalInvariantViolation.  Points come in lexicographic order of
    (x_{n-1}, ..., x_0).  Raises ValueError if M is not positive definite,
    and EnumerationBudgetExceeded past ``point_cap`` scanned candidates.
    """
    n = len(matrix)
    bordered = [[2 * x for x in row] + [b] for row, b in zip(matrix, linear)]
    bordered.append([*linear, 2 * constant])
    rows = _bareiss(bordered, n)
    prev = [1] + [row[k] for k, row in enumerate(rows)]  # prev[i] = p_{i-1}
    if min(prev) <= 0:
        raise ValueError("matrix is not positive definite")
    top = bordered[n][n]
    if top > 0:
        return
    if n == 0:
        yield ()
        return
    budget = int(point_cap)
    coords = [0] * n

    def walk(i: int, w: int) -> Iterator[tuple[int, ...]]:
        nonlocal budget
        room = -prev[i] * w
        row, pivot = rows[i], prev[i + 1]
        s = row[n] + sum(map(mul, row[i + 1:n], coords[i + 1:]))
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
