"""Rationality, almost-rationality, and the assembled classification report.

A negative-definite forest is rational when chi(x) = -(<K, x> + x^2)/2 is at
least 1 for every nonzero x with nonnegative coordinates, where K is the
canonical class and the pairing is taken in the standard +1 edge convention
(the convention of the singularity-theoretic definition; in the -1 convention
the inequality degenerates and holds for almost every forest, so it would not
discriminate anything).  The verdict is Laufer's walk to Artin's fundamental
cycle (Amer. J. Math. 94, 1972): on each component, start at x = E_v0 and add
E_v while p_v = (x, E_v) > 0.  As chi(x + E_v) = chi(x) + 1 - p_v, chi never
rises from chi(E_v0) = 1 and ends at chi(Z_min), so by Artin's criterion
(Amer. J. Math. 88, 1966) the forest is rational iff no step has p_v >= 2.
Only a component whose walk fails has its ellipsoid {chi <= 0} enumerated,
for the least witness the report prints (see :func:`_least_witness`).

Almost-rationality asks for one framing m_i whose lowering by some N >= 1
makes the forest rational.  That lowering turns chi into
chi(x) + N x_i (x_i - 1)/2 >= chi(x), so a decrement that cures vertex i
cures it from then on, and bisection over walks finds the least one.  Other
components keep their chi, so only a lone failing component can be cured.
Past the cutoff the verdict is an honest "unknown" -- there is no finite
certificate of impossibility to report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .charlattice import LatticeVector
from .errors import DEFAULT_BOX_CAP, DEFAULT_NMAX, DEFAULT_POINT_CAP, EnumerationBudgetExceeded
from .errors import InternalInvariantViolation, NotNegativeDefinite
from .homology import DerivedDimensions, compute_homology, derived_dimensions
from .intlinalg import quadratic_sublevel_points
from .plumbing import Definiteness, PlumbingForest, bad_vertices, definiteness


@dataclass(frozen=True)
class RationalityVerdict:
    """``witness``: the lexicographically least nonnegative nonzero x with
    chi(x) <= 0, or None on a rational forest."""

    rational: bool
    witness: LatticeVector | None = None


@dataclass(frozen=True)
class ARVerdict:
    """Outcome of the framing-decrement search.

    ``yes`` carries the witness vertex and the decrement that worked (zero
    for an already rational forest); ``unknown`` carries the cutoff.  A
    ``no`` would need a finiteness certificate that nothing here provides,
    so it is never produced.
    """

    status: str  # "yes" | "unknown"
    vertex: str | None = None
    decrement: int | None = None
    cutoff: int | None = None

    @property
    def certified(self) -> bool:
        return self.status == "yes"


def _laufer_walk(forest: PlumbingForest) -> Callable[..., list[list[int]]]:
    """Laufer's walk on the forest's graph, for any framings on it: the
    components (of all, or of those given) on which a step meets p_v >= 2.
    The graph is read once, so the decrement search walks all its probes on it.

    Adding E_v adds m_v to p_v and 1 to p_u at each neighbour u, O(deg v) per
    step; u is stacked when p_u turns positive, and only its own step lowers
    it.  The forest must be negative definite.  Each component is walked to
    its first failing step, and every step of one call counts against
    ``point_cap``.
    """
    neighbours = forest.adjacency
    everything = forest.components()

    def walk(framings: Sequence[int], point_cap: int, components=everything) -> list[list[int]]:
        pairing, steps, failing = [0] * len(framings), 0, []
        for component in components:
            stack = [component[0]]
            while stack:
                v = stack.pop()
                if pairing[v] >= 2:
                    failing.append(component)
                    break
                steps += 1
                if steps > point_cap:
                    raise EnumerationBudgetExceeded(f"rationality walk exceeded {point_cap} steps")
                pairing[v] += framings[v]
                for u in neighbours[v]:
                    pairing[u] += 1
                    if pairing[u] == 1:
                        stack.append(u)
        return failing

    return walk


def is_rational(
    forest: PlumbingForest, *, point_cap: int = DEFAULT_POINT_CAP
) -> RationalityVerdict:
    """Rationality by Laufer's walk, with :func:`_least_witness` past a failed one."""
    if definiteness(forest)[1] is not Definiteness.NEGATIVE_DEFINITE:
        raise NotNegativeDefinite("rationality is defined for negative-definite forests")
    return _least_witness(forest, _laufer_walk(forest)(forest.framings, point_cap), point_cap)


def _least_witness(forest: PlumbingForest, failing: list, point_cap: int) -> RationalityVerdict:
    """The lexicographically least witness, from the failing components alone.

    chi is additive over components and at least 1 on every nonzero
    nonnegative x of a rational one, so a witness x has a failing component
    C with chi(x_C) <= 0, and x_C embedded with zeros is at most x: the
    least witness is the least embedded witness of a failing component.
    Each one's ellipsoid 2 chi = -x'Ax + sum (m_v + 2) x_v <= 0, A its +1
    form, is set up on its vertices in reverse order, so the walk, fixing
    the first vertex first, meets the component's least witness first.
    Every point emitted has 2 chi(x) = W_0 <= 0 checked, and each
    component's enumeration counts against ``point_cap`` alone.
    """
    m, near = forest.framings, forest.adjacency
    witnesses = []
    for component in failing:
        order = component[::-1]
        negated = [[-m[v] if u == v else -1 if u in near[v] else 0 for u in order] for v in order]
        points = quadratic_sublevel_points(negated, [m[v] + 2 for v in order], 0, point_cap)
        pt = next((pt for pt in points if min(pt) >= 0 and any(pt)), None)
        if pt is None:
            raise InternalInvariantViolation("a failing component has no rationality witness")
        witness = [0] * len(m)
        for v, x in zip(order, pt):
            witness[v] = x
        witnesses.append(witness)
    if not witnesses:
        return RationalityVerdict(rational=True)
    return RationalityVerdict(rational=False, witness=LatticeVector(tuple(min(witnesses))))


def is_almost_rational(
    forest: PlumbingForest,
    *,
    nmax: int = DEFAULT_NMAX,
    point_cap: int = DEFAULT_POINT_CAP,
) -> ARVerdict:
    """Search for a single-vertex framing decrement that reaches rationality.

    The reported decrement is the least one that works, at the first vertex
    where it works; rational inputs are reported as witnesses with decrement
    zero.
    """
    if definiteness(forest)[1] is not Definiteness.NEGATIVE_DEFINITE:
        raise NotNegativeDefinite("rationality is defined for negative-definite forests")
    walk = _laufer_walk(forest)
    return _decrement_search(forest, walk, walk(forest.framings, point_cap), nmax, point_cap)


def certify_almost_rational(
    forest: PlumbingForest,
    *,
    nmax: int = DEFAULT_NMAX,
    point_cap: int = DEFAULT_POINT_CAP,
) -> bool:
    """Whether the forest is certified almost-rational, as :func:`full_report`
    decides it: at most one bad vertex (a theorem that report enforces), else
    the decrement search of :func:`is_almost_rational` finds a vertex."""
    return (
        len(bad_vertices(forest)) <= 1
        or is_almost_rational(forest, nmax=nmax, point_cap=point_cap).certified
    )


def _decrement_search(
    forest: PlumbingForest, walk: Callable, failing: list, nmax: int, point_cap: int
) -> ARVerdict:
    """The least (N, i), N <= nmax, whose lowering at i passes the walk, as a
    loop over decrements and then vertices meets it; ``failing`` holds the
    components on which the given framings fail, and a rational forest is
    its own witness at N = 0.  Only the vertices of a lone failing component
    are tried, each walked on that component alone; a vertex that the top
    decrement cures is bisected for its least one.
    """
    if not failing:
        return ARVerdict(status="yes", vertex=forest.ids[0] if forest.ids else None, decrement=0)
    if len(failing) > 1:
        return ARVerdict(status="unknown", cutoff=nmax)

    def cured(i: int, decrement: int) -> bool:
        framings = list(forest.framings)
        framings[i] -= decrement
        return not walk(framings, point_cap, failing)

    least = []
    for i in failing[0]:
        lo, hi = 0, nmax
        if hi <= lo or not cured(i, hi):
            continue
        while hi - lo > 1:  # lo fails and hi cures
            mid = (lo + hi) // 2
            if cured(i, mid):
                hi = mid
            else:
                lo = mid
        least.append((hi, i))
    if not least:
        return ARVerdict(status="unknown", cutoff=nmax)
    decrement, i = min(least)
    return ARVerdict(status="yes", vertex=forest.ids[i], decrement=decrement)


@dataclass(frozen=True)
class ClassificationReport:
    negdef: bool
    bad_vertex_count: int
    bad_vertices: tuple[str, ...]
    det: int
    rational: RationalityVerdict | None = None
    almost_rational: ARVerdict | None = None
    dim_h: int | None = None
    dims: DerivedDimensions | None = None
    floer_equivalence_certified: bool = False


def full_report(
    forest: PlumbingForest,
    *,
    nmax: int = DEFAULT_NMAX,
    box_cap: int = DEFAULT_BOX_CAP,
    point_cap: int = DEFAULT_POINT_CAP,
) -> ClassificationReport:
    """Assemble the whole classification; homology fields absent off-negdef.

    Laufer's walk runs first.  A rational forest has one class per orbit
    (Nemethi, Geom. Topol. 9 (2005), section 6), so its ``dim_h`` is |det|
    and no box is built; only a failing one reaches :func:`compute_homology`,
    before the decrement search and the witness enumeration.

    Enforces the structural facts as internal invariants: a zero-bad-vertex
    forest must test rational, and a forest with at most one bad vertex
    always admits an almost-rational certificate (decrementing the bad
    vertex until it stops being bad lands in the zero-bad-vertex class).
    """
    det, kind = definiteness(forest)
    bad = tuple(bad_vertices(forest))
    if kind is not Definiteness.NEGATIVE_DEFINITE:
        return ClassificationReport(
            negdef=False, bad_vertex_count=len(bad), bad_vertices=bad, det=det
        )

    walk = _laufer_walk(forest)
    failing = walk(forest.framings, point_cap)
    dim_h = compute_homology(forest, box_cap=box_cap).total_dim if failing else abs(det)
    ar = _decrement_search(forest, walk, failing, nmax, point_cap)
    rationality = _least_witness(forest, failing, point_cap)
    if ar.status == "unknown" and len(bad) == 1:
        # certified fallback: lowering the bad vertex until -m(v) >= d(v)
        # reaches a zero-bad-vertex forest, and those are always rational
        i = forest.index_of(bad[0])
        needed = forest.degree(i) + forest.framings[i]
        lowered = list(forest.framings)
        lowered[i] -= needed
        if walk(lowered, point_cap):
            raise InternalInvariantViolation("a zero-bad-vertex forest tested non-rational")
        ar = ARVerdict(status="yes", vertex=bad[0], decrement=needed)

    if len(bad) == 0 and not rationality.rational:
        raise InternalInvariantViolation(
            f"zero-bad-vertex forest tested non-rational; witness {rationality.witness}"
        )
    return ClassificationReport(
        negdef=True,
        bad_vertex_count=len(bad),
        bad_vertices=bad,
        det=det,
        rational=rationality,
        almost_rational=ar,
        dim_h=dim_h,
        dims=derived_dimensions(dim_h, det, almost_rational_certified=ar.certified),
        floer_equivalence_certified=ar.certified,
    )
