"""Reference rationality and almost-rational searches, kept as test oracles.

:func:`reference_is_rational` is the definition itself: it enumerates the
lattice points of the ellipsoid {chi <= 0}, keeps the nonzero ones with
nonnegative coordinates whose chi is at most 0, and reports the
lexicographically least.  :func:`reference_almost_rational` tries each
decrement N = 1, 2, ..., nmax on every vertex in turn and tests each lowered
forest from scratch with that enumeration.  The production code in
:mod:`plumblat.classify` decides both with Laufer's walk and must agree
with them exactly.
"""

from __future__ import annotations

from plumblat import (
    ARVerdict,
    EdgeSign,
    LatticeVector,
    PlumbingForest,
    RationalityVerdict,
    canonical_class,
    chi,
    intersection_form,
)
from plumblat.errors import DEFAULT_POINT_CAP, NotNegativeDefinite
from plumblat.intlinalg import quadratic_sublevel_points


def reference_is_rational(
    forest: PlumbingForest, point_cap: int = DEFAULT_POINT_CAP
) -> RationalityVerdict:
    """Rational iff no nonzero nonnegative lattice point has chi <= 0."""
    form = intersection_form(forest.with_edge_sign(EdgeSign.PLUS_ONE))
    if not form.is_negative_definite:
        raise NotNegativeDefinite("rationality is defined for negative-definite forests")
    canonical = canonical_class(forest)
    negated = [[-x for x in row] for row in form.matrix]
    linear = [-e for e in canonical.evals]
    witnesses = [
        pt
        for pt in quadratic_sublevel_points(negated, linear, 0, point_cap)
        if all(c >= 0 for c in pt) and any(pt) and chi(LatticeVector(pt), canonical, form) <= 0
    ]
    if witnesses:
        return RationalityVerdict(rational=False, witness=LatticeVector(min(witnesses)))
    return RationalityVerdict(rational=True)


def reference_almost_rational(
    forest: PlumbingForest,
    nmax: int,
    point_cap: int = DEFAULT_POINT_CAP,
) -> ARVerdict:
    """The first (decrement, vertex) in scan order whose lowered forest is rational."""
    if reference_is_rational(forest, point_cap).rational:
        vertex = forest.ids[0] if forest.ids else None
        return ARVerdict(status="yes", vertex=vertex, decrement=0)
    for decrement in range(1, nmax + 1):
        for i, vid in enumerate(forest.ids):
            lowered = forest.with_framing(i, forest.framings[i] - decrement)
            if reference_is_rational(lowered, point_cap).rational:
                return ARVerdict(status="yes", vertex=vid, decrement=decrement)
    return ARVerdict(status="unknown", cutoff=nmax)
