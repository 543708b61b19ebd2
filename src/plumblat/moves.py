"""Graph moves and the maps they induce on lattice homology.

Three families live here:

* the surgery triple at a vertex v of framing -p: deleting v, keeping the
  graph, and bumping the framing to -p + 1 give a short exact sequence of
  quotients, realized by the extension-sum map into the middle graph, the
  half-shift difference map out of it, and an explicit section of the latter
  that certifies surjectivity;
* blowing down a (-1)-framed leaf or isolated vertex, realized as a basis
  change (sliding the neighbor over the leaf) followed by splitting off the
  isolated (-1) vertex, which together give a signed bijection on nonzero
  classes;
* the edge-sign conversion: forests are bipartite, so negating evaluations on
  one side of a 2-coloring transports vectors between the -1 and +1 pairing
  conventions without changing any dimension.

All induced maps are materialized over the class bases of the quotient
engine as sparse integer columns, straight from box indices: the three boxes
of a triple differ only at v, so :meth:`~plumblat.charlattice.BoxIndex.splice`
carries a class root's index to the indices of its extensions across v, or
of its half-shifts, and :meth:`~plumblat.homology.HomologyResult.class_at`
reads each term's class and sign off the union-find.  An extension sum has
p + 1 terms of coefficient +1 and a section at most p of coefficient 2.  The
half-shift B has coefficients -+1/2, so the check runs on 2B, whose two
terms are -1 on k^+ and +1 on k^-: BA = 0 iff (2B)A = 0, BS = I iff each
column of (2B)S is 2 e_j, and rank(2B) = rank(B).  Ranks come from one
fraction-free integer echelon, so the exactness report carries no
tolerances.  The vector-level definitions -- :class:`FormalSum`, the three
formula maps and :func:`project_to_classes` -- are what the columns are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .charlattice import BoxIndex, CharVector
from .errors import DEFAULT_BOX_CAP, InternalInvariantViolation, InvalidTriple, NotBlowdownable
from .homology import HomologyResult, class_of, compute_homology
from .intlinalg import rank_rational
from .plumbing import Definiteness, EdgeSign, PlumbingForest, definiteness


# --- formal sums ---------------------------------------------------------

def _exact(coeff) -> Fraction | int:
    """An ``int`` or ``Fraction`` coefficient as it is, anything else as a
    ``Fraction``."""
    return coeff if type(coeff) in (int, Fraction) else Fraction(coeff)


@dataclass(frozen=True)
class FormalSum:
    """Finite rational combination of characteristic vectors: the
    vector-level form of the surgery maps, which the index columns of
    :func:`check_exactness` are tested against.

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


# --- surgery triples ------------------------------------------------------

@dataclass(frozen=True)
class SurgeryTriple:
    """The graphs (base - v, base, base with framing of v bumped by one).

    ``valid`` records whether all three intersection forms are negative
    definite; the maps below are still computable on an invalid triple, but
    the exactness checker refuses it.
    """

    base: PlumbingForest
    vertex: str
    vertex_index: int
    removed: PlumbingForest
    bumped: PlumbingForest
    valid: bool


def surgery_triple(forest: PlumbingForest, vertex_id: str) -> SurgeryTriple:
    vi = forest.index_of(vertex_id)
    removed = forest.delete_vertex(vi)
    bumped = forest.with_framing(vi, forest.framings[vi] + 1)
    valid = all(
        definiteness(g)[1] is Definiteness.NEGATIVE_DEFINITE
        for g in (forest, removed, bumped)
    )
    return SurgeryTriple(
        base=forest,
        vertex=vertex_id,
        vertex_index=vi,
        removed=removed,
        bumped=bumped,
        valid=valid,
    )


def add_vertex_map(k: CharVector, triple: SurgeryTriple) -> FormalSum:
    """Sum of all extensions of k across the new vertex, |value| <= -v^2.

    Extensions with larger evaluation at v vanish in the quotient, so the
    truncation loses nothing.  This is the definition of A, which
    :func:`_extension_terms` builds by box index.
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
    of B, which :func:`_half_shift_terms` builds doubled by box index."""
    vi = triple.vertex_index
    evals = k.evals
    up = evals[:vi] + (evals[vi] + 1,) + evals[vi + 1 :]
    down = evals[:vi] + (evals[vi] - 1,) + evals[vi + 1 :]
    return FormalSum.of([(_MINUS_HALF, CharVector(up)), (_HALF, CharVector(down))])


def bump_framing_section(k: CharVector, triple: SurgeryTriple) -> FormalSum:
    """2 * (sum of extensions with values above <k, v>), a section of the
    half-shift map modulo the image of the extension sum: the definition of
    S, which :func:`_section_terms` builds by box index."""
    vi = triple.vertex_index
    p = -triple.base.framings[vi]
    evals = k.evals
    pairs = []
    for value in range(evals[vi] + 1, p + 1, 2):
        lifted = evals[:vi] + (value,) + evals[vi + 1 :]
        pairs.append((2, CharVector(lifted)))
    return FormalSum.of(pairs)


SparseColumn = dict[int, Fraction | int]


def project_to_classes(fs: FormalSum, result: HomologyResult) -> SparseColumn:
    """Nonzero coordinates of a formal sum in the nonzero class basis, one
    :func:`~plumblat.homology.class_of` per term: the vector-level
    projection that the index columns are tested against."""
    coords: SparseColumn = {}
    for coeff, vec in fs.terms:
        ref = class_of(vec, result)
        if not ref.is_zero:
            i, term = ref.index, coeff if ref.sign == 1 else -coeff
            coords[i] = coords[i] + term if i in coords else term
    return {i: c for i, c in coords.items() if c}


# --- the maps by box index ----------------------------------------------
# Each takes the root index of a class in the source box of the map and
# gives (coefficient, index) terms in ``box``, the target box, in the order
# of the formula map's terms; terms off the box are left out.

Terms = list[tuple[int, int]]
Column = dict[int, int]


def _extension_terms(box: BoxIndex, root: int, vi: int, p: int) -> Terms:
    """A: +1 on every extension across v of a removed-box index."""
    _, extensions = box.splice(root, vi, 1)
    return [(1, a) for a in extensions]


def _half_shift_terms(box: BoxIndex, root: int, vi: int, p: int) -> Terms:
    """2B: k^- (bumped digit d - 1) with +1 and k^+ (bumped digit d) with
    -1, for base digit d of v."""
    d, shifted = box.splice(root, vi, p + 1)
    terms = [(1, shifted[d - 1])] if d else []
    if d < p:
        terms.append((-1, shifted[d]))
    return terms


def _section_terms(box: BoxIndex, root: int, vi: int, p: int) -> Terms:
    """S: 2 on each base index with digit of v above the bumped digit."""
    d, lifted = box.splice(root, vi, p)
    return [(2, a) for a in lifted[d + 1 :]]


def _column(terms: Terms, result: HomologyResult) -> Column:
    """Nonzero coordinates of index terms in the class basis of ``result``."""
    coords: Column = {}
    class_at = result.class_at
    for coeff, a in terms:
        i, s = class_at(a)
        if i is not None:
            coords[i] = coords.get(i, 0) + (-coeff if s else coeff)
    return {i: c for i, c in coords.items() if c}


def _exactness_columns(
    triple: SurgeryTriple,
    h_removed: HomologyResult,
    h_base: HomologyResult,
    h_bumped: HomologyResult,
) -> tuple[list[Column], list[Column], list[Column]]:
    """The columns of A, 2B and S, one per source class, from class roots."""
    vi = triple.vertex_index
    p = -triple.base.framings[vi]
    base, bumped = h_base.box, h_bumped.box
    cols_a = [_column(_extension_terms(base, r, vi, p), h_base) for r in h_removed.root_refs]
    cols_2b = [_column(_half_shift_terms(bumped, r, vi, p), h_bumped) for r in h_base.root_refs]
    cols_s = [_column(_section_terms(base, r, vi, p), h_base) for r in h_bumped.root_refs]
    return cols_a, cols_2b, cols_s


def _apply(cols: Sequence[Column], col: Column) -> Column:
    """The matrix with sparse columns ``cols`` applied to a sparse column."""
    out: Column = {}
    for j, coeff in col.items():
        for i, v in cols[j].items():
            out[i] = out.get(i, 0) + coeff * v
    return {i: v for i, v in out.items() if v}


@dataclass(frozen=True)
class ExactnessReport:
    b_surjective: bool
    ba_zero: bool
    ker_b_equals_im_a: bool
    section_inverts_b: bool
    dims: tuple[int, int, int]  # (removed, base, bumped)

    @property
    def exact(self) -> bool:
        return (
            self.b_surjective
            and self.ba_zero
            and self.ker_b_equals_im_a
            and self.section_inverts_b
        )


def check_exactness(
    triple: SurgeryTriple, *, box_cap: int = DEFAULT_BOX_CAP
) -> ExactnessReport:
    """Verify exactness of the quotient sequence through the triple.

    Builds the three quotients, materializes the two maps (and the section)
    as sparse integer columns over class bases straight from box indices,
    the half-shift B doubled, and checks surjectivity, that the composite
    vanishes, that the section inverts the half-shift, and the rank
    identity ker = image.
    """
    if not triple.valid:
        raise InvalidTriple(
            f"bumping {triple.vertex!r} leaves the negative-definite world"
        )
    h_removed = compute_homology(triple.removed, box_cap=box_cap)
    h_base = compute_homology(triple.base, box_cap=box_cap)
    h_bumped = compute_homology(triple.bumped, box_cap=box_cap)
    cols_a, cols_2b, cols_s = _exactness_columns(triple, h_removed, h_base, h_bumped)

    ba_zero = all(not _apply(cols_2b, col) for col in cols_a)
    section_ok = all(_apply(cols_2b, col) == {j: 2} for j, col in enumerate(cols_s))

    rank_b = rank_rational(cols_2b)
    rank_a = rank_rational(cols_a)
    report = ExactnessReport(
        b_surjective=(rank_b == h_bumped.total_dim),
        ba_zero=ba_zero,
        ker_b_equals_im_a=(rank_a == h_base.total_dim - rank_b),
        section_inverts_b=section_ok,
        dims=(h_removed.total_dim, h_base.total_dim, h_bumped.total_dim),
    )
    return report


# --- edge-sign conversion --------------------------------------------------

@dataclass(frozen=True)
class ConventionConversion:
    forest: PlumbingForest
    vectors: tuple[CharVector, ...]
    negated: tuple[bool, ...]  # True on the bipartition side whose evals flip


def bipartition(forest: PlumbingForest) -> tuple[bool, ...]:
    """Deterministic 2-coloring; the smallest index of a component is False."""
    n = len(forest)
    color: list[bool | None] = [None] * n
    for start in range(n):
        if color[start] is not None:
            continue
        color[start] = False
        stack = [start]
        while stack:
            node = stack.pop()
            for other in forest.adjacency[node]:
                if color[other] is None:
                    color[other] = not color[node]
                    stack.append(other)
    return tuple(bool(c) for c in color)


def convert_convention(
    forest: PlumbingForest, vectors: Sequence[CharVector] = ()
) -> ConventionConversion:
    """Flip the edge sign and transport vectors by the bipartite negation."""
    mask = bipartition(forest)
    flipped = EdgeSign.PLUS_ONE if forest.edge_sign is EdgeSign.MINUS_ONE else EdgeSign.MINUS_ONE
    moved = tuple(
        CharVector(
            tuple(-e if mask[i] else e for i, e in enumerate(v.evals))
        )
        for v in vectors
    )
    return ConventionConversion(
        forest=forest.with_edge_sign(flipped), vectors=moved, negated=mask
    )


# --- blow-down --------------------------------------------------------------

@dataclass(frozen=True)
class BlowdownResult:
    """Blown-down forest plus the verified signed class bijection.

    ``class_map`` sends each nonzero class index of the source quotient to
    (target class index, sign), and ``orbit_map`` each source orbit index to
    the target orbit index its classes land in, in source order.  The
    attached homology results are computed in the -1 edge convention, where
    the two elementary isomorphisms are defined; dimensions are
    convention-independent.
    """

    forest: PlumbingForest
    class_map: tuple[tuple[int, int, int], ...]
    orbit_map: tuple[tuple[int, int], ...]
    source: HomologyResult
    target: HomologyResult


def _orbit_of_classes(result: HomologyResult) -> list[int]:
    """The orbit index of each nonzero class, read off ``result.per_orbit``."""
    orbit_of = {
        rep.evals: oh.orbit.index for oh in result.per_orbit for rep in oh.representatives
    }
    return [orbit_of[cls.representative.evals] for cls in result.classes]


def blow_down(
    forest: PlumbingForest, vertex_id: str, *, box_cap: int = DEFAULT_BOX_CAP
) -> BlowdownResult:
    """Remove a (-1)-framed leaf or isolated vertex, bumping its neighbor.

    The induced map on quotients is the composite of the handleslide basis
    change with the splitting-off of the isolated (-1) vertex; it is verified
    here to be a signed bijection on nonzero classes preserving per-orbit
    dimensions.  Interior (-1) vertices (degree >= 2) are refused: that move
    changes the edge set and carries no elementary map of this shape.
    """
    xi = forest.index_of(vertex_id)
    if forest.framings[xi] != -1:
        raise NotBlowdownable(f"vertex {vertex_id!r} has framing != -1")
    neighbors = forest.neighbors(xi)
    if len(neighbors) > 1:
        raise NotBlowdownable(f"vertex {vertex_id!r} has degree {len(neighbors)} >= 2")

    work = forest.with_edge_sign(EdgeSign.MINUS_ONE)

    if neighbors:
        vi = neighbors[0]
        blown = work.with_framing(vi, work.framings[vi] + 1).delete_vertex(xi)
    else:
        vi = None
        blown = work.delete_vertex(xi)

    source = compute_homology(work, box_cap=box_cap)
    target = compute_homology(blown, box_cap=box_cap)

    def image_of(k: CharVector) -> tuple[tuple[int, ...], int]:
        evals = k.evals
        kx = evals[xi]
        if kx not in (1, -1):
            raise InternalInvariantViolation("box value at a (-1) vertex must be +-1")
        adjusted = list(evals)
        if vi is not None:
            adjusted[vi] = adjusted[vi] - kx  # slide the neighbor over the leaf
        del adjusted[xi]
        return tuple(adjusted), kx

    mapping: list[tuple[int, int, int]] = []
    seen_targets: dict[int, int] = {}
    orbit_pairs: dict[int, int] = {}
    src_orbit_of = _orbit_of_classes(source)
    dst_orbit_of = _orbit_of_classes(target)
    for cls_id, cls in enumerate(source.classes):
        img_evals, coeff = image_of(cls.representative)
        ref = class_of(img_evals, target)
        if ref.is_zero:
            raise InternalInvariantViolation(
                "blow-down sent a nonzero class to zero"
            )
        if ref.index in seen_targets:
            raise InternalInvariantViolation("blow-down map is not injective")
        seen_targets[ref.index] = cls_id
        mapping.append((cls_id, ref.index, coeff * ref.sign))
        src_orbit, dst_orbit = src_orbit_of[cls_id], dst_orbit_of[ref.index]
        if orbit_pairs.setdefault(src_orbit, dst_orbit) != dst_orbit:
            raise InternalInvariantViolation(
                "blow-down scattered one orbit across several targets"
            )
    if len(seen_targets) != target.total_dim:
        raise InternalInvariantViolation(
            f"blow-down map hits {len(seen_targets)} of {target.total_dim} classes"
        )
    by_src = {oh.orbit.index: oh.dim for oh in source.per_orbit}
    by_dst = {oh.orbit.index: oh.dim for oh in target.per_orbit}
    for src_orbit, dst_orbit in orbit_pairs.items():
        if by_src[src_orbit] != by_dst[dst_orbit]:
            raise InternalInvariantViolation("per-orbit dimension changed under blow-down")

    return BlowdownResult(
        forest=blown.with_edge_sign(forest.edge_sign),
        class_map=tuple(mapping),
        orbit_map=tuple(sorted(orbit_pairs.items())),
        source=source,
        target=target,
    )
