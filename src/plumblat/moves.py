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
of its half-shifts, and :meth:`~plumblat.homology.HomologyResult.columns`
reads each term's class and sign off the union-find and the parity vector.
An extension sum has p + 1 terms of coefficient +1 and a section at most p
of coefficient 2.  The half-shift B has coefficients -+1/2, so the check
runs on 2B, whose two terms are -1 on k^+ and +1 on k^-: BA = 0 iff
(2B)A = 0, and BS = I iff each column of (2B)S is 2 e_j, which makes B onto.
Only A is ranked, by one fraction-free integer echelon, so the exactness report
carries no tolerances.  The vector-level definitions of the three maps, on
formal sums of characteristic vectors, live with the tests
(``tests/oracle_moves.py``); :func:`project_to_classes` projects such a
sum onto the class basis, and the columns are tested against it.  The
blow-down reads the class table alone: class i goes to class i (proof at
:func:`blow_down`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .charlattice import BoxIndex, CharVector
from .errors import DEFAULT_BOX_CAP, InternalInvariantViolation, InvalidTriple, NotBlowdownable
from .homology import HomologyResult, class_of, compute_homology
from .intlinalg import rank_rational
from .plumbing import Definiteness, EdgeSign, PlumbingForest, definiteness


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


SparseColumn = dict[int, Fraction | int]


def project_to_classes(fs, result: HomologyResult) -> SparseColumn:
    """Nonzero coordinates of a formal sum -- anything whose ``terms`` are
    (coefficient, :class:`CharVector`) pairs -- in the nonzero class basis,
    one :func:`~plumblat.homology.class_of` per term: the vector-level
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
    return (
        list(h_base.columns(_extension_terms(base, r, vi, p) for r in h_removed.root_refs)),
        list(h_bumped.columns(_half_shift_terms(bumped, r, vi, p) for r in h_base.root_refs)),
        list(h_base.columns(_section_terms(base, r, vi, p) for r in h_bumped.root_refs)),
    )


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
    the half-shift B doubled, and checks that the composite vanishes, that
    the section inverts the half-shift, surjectivity, and the rank identity
    ker = image.  Surjectivity is read off the section: with m =
    dim H(bumped), 2B has m rows, so rank(2B) <= m, and (2B)S = 2 I_m
    gives m = rank(2 I_m) <= rank(2B).  2B is ranked only when the
    section check fails, so ``b_surjective`` stays exact on a broken map.
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
    rank_b = h_bumped.total_dim if section_ok else rank_rational(cols_2b)
    return ExactnessReport(
        b_surjective=(rank_b == h_bumped.total_dim),
        ba_zero=ba_zero,
        ker_b_equals_im_a=(rank_rational(cols_a) == h_base.total_dim - rank_b),
        section_inverts_b=section_ok,
        dims=(h_removed.total_dim, h_base.total_dim, h_bumped.total_dim),
    )


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

    ``class_map`` holds (i, i, sign) for each nonzero class index i of the
    source quotient: class i goes to target class i (see :func:`blow_down`).
    ``orbit_map`` sends each source orbit index to the target orbit index its
    classes land in, in source order.  The attached homology results are
    computed in the -1 edge convention, where the two elementary
    isomorphisms are defined; dimensions are convention-independent.
    """

    forest: PlumbingForest
    class_map: tuple[tuple[int, int, int], ...]
    orbit_map: tuple[tuple[int, int], ...]
    source: HomologyResult
    target: HomologyResult


def blow_down(
    forest: PlumbingForest, vertex_id: str, *, box_cap: int = DEFAULT_BOX_CAP
) -> BlowdownResult:
    """Remove a (-1)-framed leaf or isolated vertex x, bumping its neighbour v.

    The induced map on quotients is the composite of the handleslide basis
    change (v slides over the leaf, so k_v becomes k_v - k_x) with the
    splitting-off of the isolated (-1) vertex (k_x is dropped).  On the
    class table, both boxes in the -1 edge convention, it sends class i to
    class i:

    * Every class root has d_x = 0.  The radix of x is 2, so every box
      vector is extremal at x, and an alive one is an end of an x-pair.
      The pair runs from d_x = 0 to index a + stride_x + stride_v, or
      a + stride_x when x is isolated, so the alive end with d_x = 1
      always has the smaller partner and is no class minimum.
    * A root's neighbour digit satisfies d_v <= -m_v - 1.  Otherwise the
      root would be extremal at x with no pair, so it would be dead.  So
      its image (x dropped, k_v + 1) lies in the target box, whose framing
      at v is m_v + 1, with the same digits.
    * Dropping the constant digit d_x = 0 keeps index order on that slice.
      The induced map is a bijection of classes, so each root maps to the
      least member of its image class, in the same order: class i goes to
      class i, with sign -(sign of :func:`~plumblat.homology.class_of`),
      as k_x = -1.

    Each call checks this: every root has k_x = -1, one ``columns`` call
    over the box indices of all images puts each in class i, and the totals
    agree.  The two partitions of class indices into orbits
    (``orbit_classes``) must then be equal, and ``orbit_map`` pairs the
    orbits through the two ``box.orbits()`` orders.  Interior (-1)
    vertices (degree >= 2) are refused: that move changes the edge set and
    carries no elementary map of this shape.
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
        blown = work.delete_vertex(xi)

    source = compute_homology(work, box_cap=box_cap)
    target = compute_homology(blown, box_cap=box_cap)
    if source.total_dim != target.total_dim:
        raise InternalInvariantViolation(
            f"blow-down took dimension {source.total_dim} to {target.total_dim}"
        )

    evals, index, terms = source.box.evals, target.box.index, []
    for root, i in source.root_refs.items():
        image = list(evals(root))
        if neighbors:
            image[vi] -= image[xi]  # slide the neighbour over the leaf
        if image.pop(xi) != -1:
            raise InternalInvariantViolation(f"the root of class {i} has k_x != -1")
        a = index(image)
        terms.append([] if a is None else [(1, a)])
    class_map = []
    for i, column in zip(source.root_refs.values(), target.columns(terms)):
        j = next(iter(column), None)  # a one-term column holds at most one class
        if j != i:
            raise InternalInvariantViolation(f"blow-down sent class {i} to class {j}")
        class_map.append((i, i, -column[i]))

    parts, target_parts = source.orbit_classes, target.orbit_classes
    if sorted(parts.values()) != sorted(target_parts.values()):
        raise InternalInvariantViolation("blow-down moved a class to another orbit")
    orbit_of = {tuple(target_parts[key]): j for j, key in enumerate(target.box.orbits())}
    orbit_map = tuple(
        (j, orbit_of[tuple(parts[key])]) for j, key in enumerate(source.box.orbits())
    )

    return BlowdownResult(
        forest=blown.with_edge_sign(forest.edge_sign),
        class_map=tuple(class_map),
        orbit_map=orbit_map,
        source=source,
        target=target,
    )
