"""Reference surgery exactness and test-only helpers for graph moves.

The reference engine is the dense one: every induced map is a list of
``Fraction`` columns over the class bases, composites are dense matrix
products, and ranks come from Gauss-Jordan elimination over ``Fraction``.
The production check in :mod:`plumblat.moves` works on sparse columns with
an integer echelon and must agree with it on every report field.

:class:`FormalSum` and the three formula maps on it -- :func:`add_vertex_map`
(A), :func:`bump_framing_map` (B) and :func:`bump_framing_section` (S) -- are
the vector-level definitions that the index columns of
:func:`plumblat.moves.check_exactness` are tested against, through
:func:`plumblat.moves.project_to_classes`.  The formal-sum helpers and the
leaf slide below are used only by tests: the slide is the basis change that
:func:`plumblat.moves.blow_down` applies inline.
:func:`reference_blowdown_pairing` pairs a blow-down's classes and orbits
through :class:`~plumblat.charlattice.OrbitIndexer` keys, where the
production code reads orbits off the class tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from oracle_charlattice import in_box
from plumblat import CharVector, PlumbingForest, compute_homology
from plumblat.charlattice import OrbitIndexer
from plumblat.errors import InvalidTriple, NotBlowdownable
from plumblat.homology import HomologyResult, class_of
from plumblat.moves import BlowdownResult, ExactnessReport, SurgeryTriple
from plumblat.plumbing import IntersectionForm


# --- the surgery maps on formal sums ----------------------------------------

def _exact(coeff) -> Fraction | int:
    """An ``int`` or ``Fraction`` coefficient as it is, anything else as a
    ``Fraction``."""
    return coeff if type(coeff) in (int, Fraction) else Fraction(coeff)


@dataclass(frozen=True)
class FormalSum:
    """Finite rational combination of characteristic vectors: the
    vector-level form of the surgery maps, which the index columns of
    :func:`plumblat.moves.check_exactness` are tested against.

    Integer coefficients stay ``int``; any other coefficient becomes a
    ``Fraction``, so the terms never hold a float.
    """

    terms: tuple[tuple[Fraction | int, CharVector], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[Fraction | int, CharVector]]) -> "FormalSum":
        combined: dict[tuple[int, ...], tuple[Fraction | int, CharVector]] = {}
        for coeff, vec in pairs:
            coeff, key = _exact(coeff), vec.evals
            if key in combined:
                coeff += combined[key][0]
            combined[key] = (coeff, vec)
        return FormalSum(tuple(term for _, term in sorted(combined.items()) if term[0]))

    def scale(self, factor: Fraction | int) -> "FormalSum":
        factor = _exact(factor)
        return FormalSum.of((factor * c, v) for c, v in self.terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum.of(list(self.terms) + list(other.terms))

    def is_zero(self) -> bool:
        return not self.terms


def add_vertex_map(k: CharVector, triple: SurgeryTriple) -> FormalSum:
    """Sum of all extensions of k across the new vertex, |value| <= -v^2.

    Extensions with larger evaluation at v vanish in the quotient, so the
    truncation loses nothing.  This is the definition of A, which
    :func:`plumblat.moves._extension_terms` builds by box index.
    """
    vi = triple.vertex_index
    p = -triple.base.framings[vi]
    evals = k.evals
    pairs = []
    for value in range(-p, p + 1, 2):
        extended = evals[:vi] + (value,) + evals[vi:]
        pairs.append((1, CharVector(extended)))
    return FormalSum.of(pairs)


_MINUS_HALF = Fraction(-1, 2)
_HALF = Fraction(1, 2)


def bump_framing_map(k: CharVector, triple: SurgeryTriple) -> FormalSum:
    """(-1/2) k^+ + (1/2) k^- on the framing-bumped graph: the definition
    of B, which :func:`plumblat.moves._half_shift_terms` builds doubled by
    box index."""
    vi = triple.vertex_index
    evals = k.evals
    up = evals[:vi] + (evals[vi] + 1,) + evals[vi + 1 :]
    down = evals[:vi] + (evals[vi] - 1,) + evals[vi + 1 :]
    return FormalSum.of([(_MINUS_HALF, CharVector(up)), (_HALF, CharVector(down))])


def bump_framing_section(k: CharVector, triple: SurgeryTriple) -> FormalSum:
    """2 * (sum of extensions with values above <k, v>), a section of the
    half-shift map modulo the image of the extension sum: the definition of
    S, which :func:`plumblat.moves._section_terms` builds by box index."""
    vi = triple.vertex_index
    p = -triple.base.framings[vi]
    evals = k.evals
    pairs = []
    for value in range(evals[vi] + 1, p + 1, 2):
        lifted = evals[:vi] + (value,) + evals[vi + 1 :]
        pairs.append((2, CharVector(lifted)))
    return FormalSum.of(pairs)


# --- reference engine -------------------------------------------------------

def reference_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on dense rows."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    col = 0
    while rank < len(a) and col < ncols:
        pivot_row = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot_row is None:
            col += 1
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def dense_project(fs: FormalSum, result: HomologyResult) -> list[Fraction]:
    """Coordinates of a formal sum in the nonzero class basis, as a dense list."""
    coords = [Fraction(0)] * result.total_dim
    for coeff, vec in fs.terms:
        ref = class_of(vec, result)
        if not ref.is_zero:
            coords[ref.index] += coeff * ref.sign
    return coords


def reference_exactness(triple: SurgeryTriple) -> ExactnessReport:
    """Exactness report from dense rational matrices over the class bases."""
    if not triple.valid:
        raise InvalidTriple(
            f"bumping {triple.vertex!r} leaves the negative-definite world"
        )
    h_removed = compute_homology(triple.removed)
    h_base = compute_homology(triple.base)
    h_bumped = compute_homology(triple.bumped)

    cols_a = [
        dense_project(add_vertex_map(cls.representative, triple), h_base)
        for cls in h_removed.classes
    ]
    cols_b = [
        dense_project(bump_framing_map(cls.representative, triple), h_bumped)
        for cls in h_base.classes
    ]
    cols_s = [
        dense_project(bump_framing_section(cls.representative, triple), h_base)
        for cls in h_bumped.classes
    ]

    def matmul(left, right):
        # matrices are stored column-wise: (M N) column j = M applied to N[:, j]
        out = []
        for col in right:
            acc = [Fraction(0)] * (len(left[0]) if left else 0)
            for coeff, lcol in zip(col, left):
                if coeff:
                    for i, v in enumerate(lcol):
                        acc[i] += coeff * v
            out.append(acc)
        return out

    ba = matmul(cols_b, cols_a) if cols_a else []
    bs = matmul(cols_b, cols_s) if cols_s else []
    rank_b = reference_rank(cols_b) if cols_b else 0
    rank_a = reference_rank(cols_a) if cols_a else 0
    return ExactnessReport(
        b_surjective=(rank_b == h_bumped.total_dim),
        ba_zero=all(all(v == 0 for v in col) for col in ba),
        ker_b_equals_im_a=(rank_a == h_base.total_dim - rank_b),
        section_inverts_b=all(
            all(v == (1 if i == j else 0) for i, v in enumerate(col))
            for j, col in enumerate(bs)
        ),
        dims=(h_removed.total_dim, h_base.total_dim, h_bumped.total_dim),
    )


# --- test-only helpers --------------------------------------------------------

def truncate_to_box(fs: FormalSum, form: IntersectionForm) -> FormalSum:
    """Drop terms that die by the out-of-range vanishing relation."""
    return FormalSum.of(
        (c, v) for c, v in fs.terms if in_box(v.evals, form)
    )


def apply_linear(
    mapping: Callable[[CharVector], FormalSum], fs: FormalSum
) -> FormalSum:
    out = FormalSum.of(())
    for coeff, vec in fs.terms:
        out = out + mapping(vec).scale(coeff)
    return out


def slide_leaf_basis_change(
    k: CharVector, forest: PlumbingForest, leaf_id: str
) -> CharVector:
    """Evaluations after the handleslide v -> v - x over the leaf x."""
    xi = forest.index_of(leaf_id)
    neighbors = forest.neighbors(xi)
    if len(neighbors) != 1:
        raise NotBlowdownable(f"{leaf_id!r} is not a leaf")
    vi = neighbors[0]
    evals = list(k.evals)
    evals[vi] -= evals[xi]
    return CharVector(tuple(evals))


def unslide_leaf_basis_change(
    k: CharVector, forest: PlumbingForest, leaf_id: str
) -> CharVector:
    """Inverse of :func:`slide_leaf_basis_change`."""
    xi = forest.index_of(leaf_id)
    neighbors = forest.neighbors(xi)
    if len(neighbors) != 1:
        raise NotBlowdownable(f"{leaf_id!r} is not a leaf")
    vi = neighbors[0]
    evals = list(k.evals)
    evals[vi] += evals[xi]
    return CharVector(tuple(evals))


def reference_blowdown_pairing(
    result: BlowdownResult, leaf_id: str
) -> tuple[tuple[tuple[int, int, int], ...], dict[int, set[int]]]:
    """The class map of a blow-down and the target orbits each source orbit
    meets, found from orbit keys.

    Each source class representative is slid over the leaf (if it has a
    neighbour) and restricted to the other vertices; its class in the target
    gives the class map, and the keys of the representative and of its image,
    matched against the keys of the orbit representatives, give the orbits.
    """
    source, target = result.source, result.target
    work = source.forest
    xi = work.index_of(leaf_id)
    src_keys, dst_keys = OrbitIndexer(source.form), OrbitIndexer(target.form)
    src_orbit = {src_keys.key(oh.orbit.representative): oh.orbit.index for oh in source.per_orbit}
    dst_orbit = {dst_keys.key(oh.orbit.representative): oh.orbit.index for oh in target.per_orbit}
    class_map, orbit_pairs = [], {}
    for cls_id, cls in enumerate(source.classes):
        k = cls.representative
        if work.neighbors(xi):
            k = slide_leaf_basis_change(k, work, leaf_id)
        image = k.evals[:xi] + k.evals[xi + 1:]
        ref = class_of(image, target)
        class_map.append((cls_id, ref.index, k.evals[xi] * ref.sign))
        orbit_pairs.setdefault(src_orbit[src_keys.key(cls.representative)], set()).add(
            dst_orbit[dst_keys.key(image)]
        )
    return tuple(class_map), orbit_pairs
