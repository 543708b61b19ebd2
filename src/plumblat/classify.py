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

Almost-rationality is searched directly from its definition: decrement one
vertex framing by N = 1, 2, ... and retest.  Rationality survives framing
decrements, so the first success per vertex is conclusive.  Past the cutoff
the verdict is an honest "unknown" -- there is no finite certificate of
impossibility to report.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        x = LatticeVector(pt)
        if chi(x, canonical, form) <= 0:
            witnesses.append(pt)
    if witnesses:
        return RationalityVerdict(rational=False, witness=LatticeVector(min(witnesses)))
    return RationalityVerdict(rational=True)


def is_almost_rational(
    forest: PlumbingForest,
    *,
    nmax: int = DEFAULT_NMAX,
    point_cap: int = DEFAULT_RATIONALITY_POINT_CAP,
) -> ARVerdict:
    """Search for a single-vertex framing decrement that reaches rationality.

    Scans decrements in increasing order so the reported witness is minimal;
    rational inputs are reported as witnesses with decrement zero.
    """
    rational = is_rational(forest, point_cap=point_cap).rational
    return _decrement_search(forest, rational, nmax, point_cap)


def _decrement_search(
    forest: PlumbingForest, rational: bool, nmax: int, point_cap: int
) -> ARVerdict:
    """The almost-rational verdict, given whether the forest itself is rational.

    A rational forest is its own witness at decrement zero; otherwise the
    decrements 1, 2, ..., nmax are tried on every vertex in turn.
    """
    if rational:
        vertex = forest.ids[0] if forest.ids else None
        return ARVerdict(status="yes", vertex=vertex, decrement=0)
    for decrement in range(1, nmax + 1):
        for i, vid in enumerate(forest.ids):
            lowered = forest.with_framing(i, forest.framings[i] - decrement)
            if is_rational(lowered, point_cap=point_cap).rational:
                return ARVerdict(status="yes", vertex=vid, decrement=decrement)
    return ARVerdict(status="unknown", cutoff=nmax)


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
    box_cap: int | None = None,
    point_cap: int = DEFAULT_RATIONALITY_POINT_CAP,
) -> ClassificationReport:
    """Assemble the whole classification; homology fields absent off-negdef.

    Enforces the structural facts as internal invariants: a zero-bad-vertex
    forest must test rational, a rational forest must have dimension |det|,
    and a forest with at most one bad vertex always admits an almost-rational
    certificate (decrementing the bad vertex until it stops being bad lands
    in the zero-bad-vertex class).
    """
    box_cap = DEFAULT_BOX_CAP if box_cap is None else box_cap
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
    ar = _decrement_search(forest, rationality.rational, nmax, point_cap)
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
