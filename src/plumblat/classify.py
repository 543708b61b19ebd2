"""Rationality, almost-rationality, and the assembled classification report.

A negative-definite forest is rational when chi(x) = -(<K, x> + x^2)/2 is at
least 1 for every nonzero x with nonnegative coordinates, where K is the
canonical class and the pairing is taken in the standard +1 edge convention
(the convention of the singularity-theoretic definition; in the -1 convention
the inequality degenerates and holds for almost every forest, so it would not
discriminate anything).  The test is a certified finite search: the region
chi <= 0 is a compact ellipsoid, and its lattice points are enumerated
exactly, so the verdict either carries an explicit witness or an exhaustive
bound.

Almost-rationality asks for one framing m_i whose lowering by some N >= 1
makes the forest rational.  That lowering turns chi into
chi(x) + N x_i (x_i - 1)/2 >= chi(x), so the lowered forest's witnesses are
among the forest's own, and the search reads each vertex's least decrement
off them instead of enumerating again; a real enumeration confirms the
chosen lowered forest, and every vertex's blocking witness is re-checked on
its own lowered forest.  Past the cutoff the verdict is an honest "unknown"
-- there is no finite certificate of impossibility to report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .charlattice import DEFAULT_BOX_CAP, LatticeVector, chi
from .errors import InternalInvariantViolation, NotNegativeDefinite
from .homology import DerivedDimensions, HomologyResult, compute_homology, derived_dimensions
from .intlinalg import quadratic_sublevel_points
from .plumbing import (
    EdgeSign,
    PlumbingForest,
    bad_vertices,
    canonical_class,
    intersection_form,
)

DEFAULT_NMAX = 64
DEFAULT_RATIONALITY_POINT_CAP = 10**7


@dataclass(frozen=True)
class RationalityVerdict:
    """``witnesses``: every nonnegative nonzero (point, chi) with chi <= 0."""

    rational: bool
    witness: LatticeVector | None = None
    witnesses: tuple[tuple[tuple[int, ...], int], ...] = field(
        default=(), compare=False, repr=False
    )


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


def _plus_form(forest: PlumbingForest):
    return intersection_form(forest.with_edge_sign(EdgeSign.PLUS_ONE))


def is_rational(
    forest: PlumbingForest,
    *,
    point_cap: int = DEFAULT_RATIONALITY_POINT_CAP,
) -> RationalityVerdict:
    """Definition-based rationality test with explicit witness.

    Enumerates the lattice points of the ellipsoid {chi <= 0}; any nonzero
    one with nonnegative coordinates disproves rationality.  The witness
    reported is the lexicographically least one, for reproducibility.
    """
    form = _plus_form(forest)
    if not form.is_negative_definite:
        raise NotNegativeDefinite("rationality is defined for negative-definite forests")
    n = len(form)
    if n == 0:
        return RationalityVerdict(rational=True)
    canonical = canonical_class(forest)
    negated = [[-x for x in row] for row in form.matrix]
    linear = [-e for e in canonical.evals]
    witnesses = []
    for pt in quadratic_sublevel_points(negated, linear, 0, point_cap):
        if any(c < 0 for c in pt) or not any(pt):
            continue
        value = chi(LatticeVector(pt), canonical, form)
        if value <= 0:
            witnesses.append((pt, value))
    if witnesses:
        least = min(pt for pt, _ in witnesses)
        return RationalityVerdict(
            rational=False, witness=LatticeVector(least), witnesses=tuple(witnesses)
        )
    return RationalityVerdict(rational=True)


def is_almost_rational(
    forest: PlumbingForest,
    *,
    nmax: int = DEFAULT_NMAX,
    point_cap: int = DEFAULT_RATIONALITY_POINT_CAP,
) -> ARVerdict:
    """Search for a single-vertex framing decrement that reaches rationality.

    The reported decrement is the least one that works, at the first vertex
    where it works; rational inputs are reported as witnesses with decrement
    zero.
    """
    rationality = is_rational(forest, point_cap=point_cap)
    return _decrement_search(forest, rationality, nmax, point_cap)


def certify_almost_rational(
    forest: PlumbingForest,
    *,
    nmax: int = DEFAULT_NMAX,
    point_cap: int = DEFAULT_RATIONALITY_POINT_CAP,
) -> bool:
    """Whether the forest is certified almost-rational, as :func:`full_report`
    decides it: at most one bad vertex (a theorem that report enforces), else
    the decrement search of :func:`is_almost_rational` finds a vertex."""
    return (
        len(bad_vertices(forest)) <= 1
        or is_almost_rational(forest, nmax=nmax, point_cap=point_cap).certified
    )


def _decrement_search(
    forest: PlumbingForest, rationality: RationalityVerdict, nmax: int, point_cap: int
) -> ARVerdict:
    """The almost-rational verdict, read off the forest's own witnesses W.

    A rational forest is its own witness at decrement zero.  Otherwise a w in
    W with w_i in {0, 1} blocks vertex i at every decrement, and else vertex
    i needs N > -chi(w) / (w_i (w_i - 1)/2) for every w; the least (N_i, i)
    with N_i <= nmax is the verdict, in the order a loop over decrements and
    then vertices would meet it.  Certificates: the chosen lowered forest is
    confirmed by a real :func:`is_rational`, and each vertex's blocking
    witness is re-evaluated on the forest lowered by min(N_i - 1, nmax) at i;
    a failure of either raises :class:`InternalInvariantViolation`.
    """
    if rationality.rational:
        vertex = forest.ids[0] if forest.ids else None
        return ARVerdict(status="yes", vertex=vertex, decrement=0)
    # least[i] is N_i (None: never cured); blocking[i] is the witness setting it
    least: list[int | None] = [0] * len(forest)
    blocking: list[tuple[int, ...] | None] = [None] * len(forest)
    for pt, value in rationality.witnesses:
        for i, floor in enumerate(least):
            if floor is None:
                continue
            if pt[i] < 2:
                least[i], blocking[i] = None, pt
                continue
            needed = -value // (pt[i] * (pt[i] - 1) // 2) + 1
            if needed > floor:
                least[i], blocking[i] = needed, pt

    for i, pt in enumerate(blocking):
        short = nmax if least[i] is None else min(least[i] - 1, nmax)
        lowered = forest.with_framing(i, forest.framings[i] - short)
        form = _plus_form(lowered)
        if pt is None or chi(LatticeVector(pt), canonical_class(lowered), form) > 0:
            raise InternalInvariantViolation(
                f"vertex {forest.ids[i]!r} lowered by {short} lost its blocking witness {pt}"
            )

    cured = [(need, i) for i, need in enumerate(least) if need is not None and need <= nmax]
    if not cured:
        return ARVerdict(status="unknown", cutoff=nmax)
    decrement, i = min(cured)
    lowered = forest.with_framing(i, forest.framings[i] - decrement)
    if not is_rational(lowered, point_cap=point_cap).rational:
        raise InternalInvariantViolation(
            f"vertex {forest.ids[i]!r} lowered by {decrement} tested non-rational"
        )
    return ARVerdict(status="yes", vertex=forest.ids[i], decrement=decrement)


@dataclass(frozen=True)
class ClassificationReport:
    negdef: bool
    bad_vertex_count: int
    bad_vertices: tuple[str, ...]
    det: int
    rational: RationalityVerdict | None
    almost_rational: ARVerdict | None
    dim_h: int | None
    dims: DerivedDimensions | None
    floer_equivalence_certified: bool
    homology: HomologyResult | None


def full_report(
    forest: PlumbingForest,
    *,
    nmax: int = DEFAULT_NMAX,
    box_cap: int = DEFAULT_BOX_CAP,
    point_cap: int = DEFAULT_RATIONALITY_POINT_CAP,
) -> ClassificationReport:
    """Assemble the whole classification; homology fields absent off-negdef.

    Enforces the structural facts as internal invariants: a zero-bad-vertex
    forest must test rational, a rational forest must have dimension |det|,
    and a forest with at most one bad vertex always admits an almost-rational
    certificate (decrementing the bad vertex until it stops being bad lands
    in the zero-bad-vertex class).
    """
    form = intersection_form(forest)
    bad = tuple(bad_vertices(forest))
    if not form.is_negative_definite:
        return ClassificationReport(
            negdef=False,
            bad_vertex_count=len(bad),
            bad_vertices=bad,
            det=form.determinant,
            rational=None,
            almost_rational=None,
            dim_h=None,
            dims=None,
            floer_equivalence_certified=False,
            homology=None,
        )

    homology = compute_homology(forest, box_cap=box_cap)
    rationality = is_rational(forest, point_cap=point_cap)
    ar = _decrement_search(forest, rationality, nmax, point_cap)
    if ar.status == "unknown" and len(bad) == 1:
        # certified fallback: lowering the bad vertex until -m(v) >= d(v)
        # reaches a zero-bad-vertex forest, and those are always rational
        i = forest.index_of(bad[0])
        needed = forest.degree(i) + forest.framings[i]
        lowered = forest.with_framing(i, forest.framings[i] - needed)
        if not is_rational(lowered, point_cap=point_cap).rational:
            raise InternalInvariantViolation(
                "a zero-bad-vertex forest tested non-rational"
            )
        ar = ARVerdict(status="yes", vertex=bad[0], decrement=needed)

    if len(bad) == 0 and not rationality.rational:
        raise InternalInvariantViolation(
            f"zero-bad-vertex forest tested non-rational; witness {rationality.witness}"
        )
    if rationality.rational and homology.total_dim != homology.det_abs:
        raise InternalInvariantViolation(
            "rational forest with dimension above |det|"
        )
    certified = ar.certified
    dims = derived_dimensions(homology, almost_rational_certified=certified)
    return ClassificationReport(
        negdef=True,
        bad_vertex_count=len(bad),
        bad_vertices=bad,
        det=form.determinant,
        rational=rationality,
        almost_rational=ar,
        dim_h=homology.total_dim,
        dims=dims,
        floer_equivalence_certified=certified,
        homology=homology,
    )
