"""Reference lattice-coordinate helpers for characteristic vectors.

The package works on characteristic vectors and box indices alone; these
helpers list the box as vectors split into orbits, and express the same
objects in lattice coordinates x, with k = k0 + 2x*, as independent
references in the tests: the orbit key adj(A) k mod 2|det|, the weight
w(x) = -((x, x) + <k0, x>)/2 from the full quadratic form, the coordinate
solve through the integer adjugate, the unit-step local-minimum test, the
framing-parity sign of a basis change, and the coercivity and radius
bounds from the exact L D L^T eigenvalue bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

from oracle_intlinalg import adjugate as reference_adjugate
from oracle_intlinalg import reference_min_eigenvalue_lower_bound, sqrt_upper_bound
from plumblat import (
    CharVector,
    EdgeSign,
    IntersectionForm,
    LatticeVector,
    SpinCOrbit,
)
from plumblat import intlinalg
from plumblat.charlattice import DEFAULT_BOX_CAP, BoxIndex, OrbitIndexer, box_ranges
from plumblat.errors import NotNegativeDefinite, ParityViolation


@dataclass(frozen=True)
class OrbitMembers:
    orbit: SpinCOrbit
    members: tuple[CharVector, ...]


def enumerate_box(
    form: IntersectionForm, box_cap: int = DEFAULT_BOX_CAP
) -> list[CharVector]:
    """All characteristic vectors that can be nonzero in the quotient.

    Exactly the product of the per-vertex ranges; raises BoxTooLarge instead
    of truncating when the product exceeds ``box_cap``.
    """
    if not form.is_negative_definite:
        raise NotNegativeDefinite("box enumeration requires a negative-definite form")
    BoxIndex(form, box_cap)  # raises BoxTooLarge before enumerating
    return [CharVector(evals) for evals in product(*box_ranges(form))]


def in_box(evals: Sequence[int], form: IntersectionForm) -> bool:
    """Whether every evaluation lies in its vertex's range [m, -m]."""
    return all(
        form.matrix[i][i] <= evals[i] <= -form.matrix[i][i]
        for i in range(len(form))
    )


def orbit_decompose(
    box: Iterable[CharVector], form: IntersectionForm
) -> list[OrbitMembers]:
    """Partition the full box into spin^c orbits; exactly |det| of them.

    ``box`` must hold the whole box of ``form``, as :func:`enumerate_box`
    returns it; the caller's vectors are regrouped, not copied.
    """
    by_evals = {k.evals: k for k in box}
    grid = BoxIndex(form, len(by_evals))
    out = []
    for idx, key in enumerate(grid.orbits()):
        vectors = tuple(by_evals[grid.evals(i)] for i in grid.members(key))
        out.append(
            OrbitMembers(
                orbit=SpinCOrbit(representative=vectors[0], index=idx),
                members=vectors,
            )
        )
    return out


def adjugate_key(form: IntersectionForm) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The reference orbit key, k -> adj(A) k mod 2|det|: n residues.

    k and k' share an orbit iff A^{-1}(k' - k)/2 is an integer vector,
    that is iff adj(A)(k' - k) vanishes mod 2 det(A).  The adjugate is the
    dense one of ``oracle_intlinalg``."""
    adj = reference_adjugate(form.matrix)
    mod = 2 * abs(form.determinant)
    return lambda evals: tuple(sum(c * e for c, e in zip(row, evals)) % mod for row in adj)


def tuple_key(form: IntersectionForm) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The orbit key as a tuple of residues, k -> U d mod d_i, one per
    invariant factor d_i above 1 of the Smith form U A V = D, with
    d = (k - m)/2 the box digits: the key before it is packed into one
    int.  ParityViolation if k is not characteristic."""
    moduli, u = intlinalg.smith_form(form.matrix)
    factors = [(d, row) for d, row in zip(moduli, u) if d > 1]
    framings = [row[i] for i, row in enumerate(form.matrix)]

    def key(evals: Sequence[int]) -> tuple[int, ...]:
        doubled = [e - m for e, m in zip(evals, framings)]
        if any(x % 2 for x in doubled):
            raise ParityViolation(f"{tuple(evals)} is not characteristic")
        return tuple(sum(r * x for r, x in zip(row, doubled)) // 2 % d for d, row in factors)

    return key


def decode_key(indexer: OrbitIndexer, key: int) -> tuple[int, ...]:
    """The residues of a packed key, field by field.  Field i must hold
    r top/d_i with 0 <= r < d_i, and no bit may lie past the last field;
    AssertionError otherwise."""
    width, top = indexer.width, indexer.top
    residues = []
    for i, d in enumerate(indexer.moduli):
        field = key >> width * i & (1 << width) - 1
        assert field < top and field % (top // d) == 0, (key, i)
        residues.append(field // (top // d))
    assert key >> width * len(indexer.moduli) == 0, key
    return tuple(residues)


def pd_dual(x: LatticeVector, form: IntersectionForm) -> CharVector:
    """The functional <x*, -> = (x, -); characteristic only for special x."""
    n = len(form)
    coords = x.coords
    return CharVector(
        tuple(sum(form.matrix[i][j] * coords[j] for j in range(n)) for i in range(n))
    )


def lattice_coordinates(
    indexer: OrbitIndexer, k: CharVector | Sequence[int], k0: CharVector | Sequence[int]
) -> LatticeVector:
    """Solve k = k0 + 2 x* for integral x; ValueError if orbits differ."""
    evals = k.evals if isinstance(k, CharVector) else k
    base = k0.evals if isinstance(k0, CharVector) else k0
    diff = [evals[j] - base[j] for j in range(indexer.n)]
    coords = []
    denom = 2 * indexer.determinant
    for i in range(indexer.n):
        num = sum(indexer.adjugate[i][j] * diff[j] for j in range(indexer.n))
        q, r = divmod(num, denom)
        if r:
            raise ValueError("vectors lie in different orbits")
        coords.append(q)
    return LatticeVector(tuple(coords))


def _double_weight(
    coords: Sequence[int], k0: Sequence[int], form: IntersectionForm
) -> int:
    """(x, x) + <k0, x>; equals -2 w(x) for the form's own pairing."""
    n = len(form)
    square = sum(
        form.matrix[i][j] * coords[i] * coords[j] for i in range(n) for j in range(n)
    )
    return square + sum(k0[i] * coords[i] for i in range(n))


def weight(x: LatticeVector, k0: CharVector, form: IntersectionForm) -> int:
    """w(x) = -((x, x) + <k0, x>)/2 in the +1 edge convention.

    The graded engine is defined with adjacent vertices pairing to +1, so a
    form built with the -1 convention is rejected here rather than silently
    producing the wrong filtration; convert the forest first.
    """
    if form.edge_sign is not EdgeSign.PLUS_ONE:
        raise ValueError("weight requires a +1 convention form; convert the forest first")
    doubled = _double_weight(x.coords, k0.evals, form)
    if doubled % 2:
        raise ParityViolation("k0 is not characteristic for this form")
    return -doubled // 2


def lattice_to_char(
    x: LatticeVector, k0: CharVector, form: IntersectionForm
) -> CharVector:
    """k0 + 2 x*: the orbit's bijection between lattice points and vectors."""
    dual = pd_dual(x, form)
    return CharVector(tuple(k0.evals[i] + 2 * dual.evals[i] for i in range(len(form))))


def char_to_lattice(
    k: CharVector, k0: CharVector, form: IntersectionForm
) -> LatticeVector:
    """Inverse of :func:`lattice_to_char`; ValueError if orbits differ."""
    return lattice_coordinates(OrbitIndexer(form), k, k0)


def is_local_minimum(
    x: LatticeVector, k0: CharVector, form: IntersectionForm
) -> bool:
    """Whether w(x) <= w(x') for all 2n unit neighbors x' of x.

    Compares doubled weights so no halving is needed; works in either edge
    convention (the filtration semantics belong to the +1 one).
    """
    n = len(form)
    base = _double_weight(x.coords, k0.evals, form)
    coords = list(x.coords)
    for i in range(n):
        for step in (1, -1):
            coords[i] += step
            neighbor = _double_weight(coords, k0.evals, form)
            coords[i] -= step
            if neighbor > base:  # w(neighbor) < w(x)
                return False
    return True


def sign_normalization(
    k: CharVector, k0: CharVector, form: IntersectionForm
) -> int:
    """Sign of the basis change that removes the framing-parity factor.

    Writing k = k0 + sum_i c_i 2v_i*, the sign is (-1) to the sum of the c_i
    over odd-framed vertices; conjugating generators by it turns the signed
    extremal reflections into unsigned ones.
    """
    coords = lattice_coordinates(OrbitIndexer(form), k, k0).coords
    exponent = sum(
        c for i, c in enumerate(coords) if form.matrix[i][i] % 2
    )
    return -1 if exponent % 2 else 1


def coercivity_bounds(
    form: IntersectionForm, k0: CharVector
) -> tuple[Fraction, Fraction]:
    """Exact rationals (c, C) with w(x) >= c |x|^2 - C for all lattice x.

    Driven by the exact LDL eigenvalue bound on the positive-definite form
    -(x, x).
    """
    if not form.is_negative_definite:
        raise NotNegativeDefinite("coercivity needs a negative-definite form")
    n = len(form)
    if n == 0:
        return Fraction(1), Fraction(0)
    negated = [[-x for x in row] for row in form.matrix]
    lam = reference_min_eigenvalue_lower_bound(negated)
    norm_sq = Fraction(sum(v * v for v in k0.evals))
    return lam / 4, norm_sq / (4 * lam)


def weight_radius_sq_bound(
    form: IntersectionForm, k0: CharVector, level: int
) -> Fraction:
    """R with: w(x) <= level implies |x|^2 <= R.  Negative R means no point.

    From lambda |x|^2 <= -(x,x) = 2w(x) + <k0,x> <= 2 level + |k0| |x| and the
    quadratic formula, rounding the square roots outward.
    """
    if not form.is_negative_definite:
        raise NotNegativeDefinite("radius bound needs a negative-definite form")
    n = len(form)
    if n == 0:
        return Fraction(0) if level >= 0 else Fraction(-1)
    negated = [[-x for x in row] for row in form.matrix]
    lam = reference_min_eigenvalue_lower_bound(negated)
    norm_sq = Fraction(sum(v * v for v in k0.evals))
    disc = norm_sq + 8 * level * lam
    if disc < 0:
        return Fraction(-1)
    b_up = sqrt_upper_bound(norm_sq)
    root_up = sqrt_upper_bound(disc)
    t_up = (b_up + root_up) / (2 * lam)
    return t_up * t_up
