"""Reference almost-rational search: the per-decrement loop, kept as a test oracle.

Each decrement N = 1, 2, ..., nmax is tried on every vertex in turn, and each
lowered forest is enumerated from scratch by :func:`is_rational`.  The
production search in :mod:`plumblat.classify` reads the same verdict off the
forest's own witnesses and must agree with it exactly.
"""

from __future__ import annotations

from plumblat import ARVerdict, PlumbingForest, is_rational
from plumblat.classify import DEFAULT_RATIONALITY_POINT_CAP


def reference_almost_rational(
    forest: PlumbingForest,
    nmax: int,
    point_cap: int = DEFAULT_RATIONALITY_POINT_CAP,
) -> ARVerdict:
    """The first (decrement, vertex) in scan order whose lowered forest is rational."""
    if is_rational(forest, point_cap=point_cap).rational:
        vertex = forest.ids[0] if forest.ids else None
        return ARVerdict(status="yes", vertex=vertex, decrement=0)
    for decrement in range(1, nmax + 1):
        for i, vid in enumerate(forest.ids):
            lowered = forest.with_framing(i, forest.framings[i] - decrement)
            if is_rational(lowered, point_cap=point_cap).rational:
                return ARVerdict(status="yes", vertex=vid, decrement=decrement)
    return ARVerdict(status="unknown", cutoff=nmax)
