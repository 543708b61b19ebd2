"""Lattice homology of a negative-definite plumbing forest.

The quotient is generated by the finite box of characteristic vectors,
subject to two families of relations at each vertex v:

* out-of-range vanishing: a vector with |<k, v>| > -v^2 is zero -- such
  vectors never enter the box, but reflection targets may leave it;
* extremal reflection: a vector with <k, v> = +-v^2 is identified with
  (-1)^{v^2} (k -+ 2v*).

Since every relation is monomial (k ~ +-k'), the quotient dimension over any
field of characteristic != 2 is the number of sign-consistent classes not
identified with zero.  The engine holds sets of box vectors as Python-int
bitsets, bit a standing for the mixed-radix index a of
:class:`~plumblat.charlattice.BoxIndex`.  A reflection at v pairs each index
a whose digit of v is 0, and whose neighbour digits stay in range after the
move, with a + offset, for one fixed offset.  The set of these pair starts
is a product of digit sets, and so is the set of vectors extremal at v, so
both are built by shifts; an extremal vector that is neither end of a pair
escapes the box and is flagged.  Flags then cross a whole reflection at
once, as integer shifts by the offset: the flagged pairs are
ends = (dead | dead shifted by -offset) & starts, and
dead |= ends | ends shifted by +offset.  The sweeps over all reflections
repeat until nothing moves.  After that every pair has both ends flagged or
neither, so a class is zero iff all its members are flagged.  Of the
pairs with both ends alive -- a few percent of the box -- those that close
a commuting square with two others are dropped
(:meth:`~plumblat.charlattice.BoxIndex.square_free`), and the rest enter a
union-find keyed by index, whose links carry a sign parity and whose roots
are class minima.  No pair can close a cycle of odd parity (see
:func:`compute_homology`), so no class is killed by k ~ -k.  That
union-find is the one class table: the classes are the alive roots in
index order, :meth:`HomologyResult.class_at` reads a box index's class and
parity off it, and :func:`class_of` finds a vector's box index first.
Each class's orbit key is ``box.key`` of its root.  The object views --
``classes``, with each representative ``box.evals`` of its root, and
``per_orbit``, with each orbit's representative its least member from
``box.orbits`` -- are built the first time they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .charlattice import BoxIndex, CharVector, SpinCOrbit
from .errors import (
    DEFAULT_BOX_CAP,
    InternalInvariantViolation,
    NegativeOddDimension,
    NotNegativeDefinite,
)
from .plumbing import EdgeSign, IntersectionForm, PlumbingForest, intersection_form


@dataclass(frozen=True)
class ClassRef:
    """Location of a vector in the quotient: class index (None = zero), sign."""

    index: int | None
    sign: int

    @property
    def is_zero(self) -> bool:
        return self.index is None


ZERO = ClassRef(index=None, sign=1)


@dataclass(frozen=True)
class SignedClass:
    """A quotient class, named by its representative.  ``members`` is empty:
    :func:`class_of` gives each vector's class and sign."""

    representative: CharVector | None
    members: tuple[tuple[CharVector, int], ...]
    is_zero: bool = False


_ZERO_CLASS = SignedClass(representative=None, members=(), is_zero=True)


@dataclass(frozen=True)
class OrbitHomology:
    orbit: SpinCOrbit
    dim: int
    representatives: tuple[CharVector, ...]


@dataclass(frozen=True, eq=False)
class HomologyResult:
    """Quotient dimensions per spin^c orbit, with the class table.

    The class table is integers only.  ``links`` is the signed union-find
    over box indices (see :func:`_find`), ``root_refs`` maps the root of
    each nonzero class to its class index, and ``orbit_classes`` maps each
    orbit key to the indices of its classes; :meth:`class_at` reads the
    first two.  ``box`` is the box the classes were found in, with its
    orbit keys.

    ``classes`` (the nonzero classes in order of their lex-least members)
    and ``per_orbit`` are object views of that table, built the first time
    they are read; a caller that needs only dimensions and class indices
    never builds them.  ``zero_class`` stands for every box vector that
    dies; it does not list them.
    """

    forest: PlumbingForest
    form: IntersectionForm
    convention: EdgeSign
    total_dim: int
    box: BoxIndex = field(repr=False)
    links: dict[int, int] = field(repr=False)
    root_refs: dict[int, int] = field(repr=False)
    orbit_classes: dict[tuple[int, ...], list[int]] = field(repr=False)

    @property
    def det_abs(self) -> int:
        return abs(self.form.determinant)

    @property
    def zero_class(self) -> SignedClass:
        return _ZERO_CLASS

    def class_at(self, index: int) -> tuple[int | None, int]:
        """The class index of box index ``index`` (None if it dies) and the
        parity s with val(index) = (-1)^s val(class representative)."""
        root, s = _find(self.links, index)
        return self.root_refs.get(root), s

    @cached_property
    def classes(self) -> tuple[SignedClass, ...]:
        evals = self.box.evals
        return tuple(
            SignedClass(representative=CharVector(evals(root)), members=())
            for root in self.root_refs
        )

    @cached_property
    def per_orbit(self) -> tuple[OrbitHomology, ...]:
        """Per-orbit dimensions and class representatives, orbits in order
        of their least box members; read off the whole box, so an orbit
        without a class cannot hide."""
        classes = self.classes
        per_orbit = []
        for orbit_index, (key, least) in enumerate(self.box.orbits().items()):
            cls_ids = self.orbit_classes.get(key, ())
            per_orbit.append(
                OrbitHomology(
                    orbit=SpinCOrbit(
                        representative=CharVector(self.box.evals(least)), index=orbit_index
                    ),
                    dim=len(cls_ids),
                    representatives=tuple(classes[c].representative for c in cls_ids),
                )
            )
        if self.total_dim != sum(o.dim for o in per_orbit):
            raise InternalInvariantViolation("per-orbit dimensions do not add up")
        return tuple(per_orbit)


def _find(links: dict[int, int], a: int) -> tuple[int, int]:
    """Root of a and the parity s with val(a) = (-1)^s val(root), pointing
    each node on the way at its grandparent.

    ``links`` holds non-roots only: link = 2 * parent + s with
    val(a) = (-1)^s val(parent), and parent < a, so roots are class minima.
    """
    s = 0
    link = links.get(a)
    while link is not None:
        up = links.get(link >> 1)
        if up is None:
            return link >> 1, s ^ link & 1
        link = links[a] = up ^ link & 1
        s ^= link & 1
        a = link >> 1
        link = links.get(a)
    return a, s


def compute_homology(
    forest: PlumbingForest, *, box_cap: int = DEFAULT_BOX_CAP
) -> HomologyResult:
    """Quotient of the box by the signed reflection relations, per orbit.

    No relation can identify a vector with its own negative.  A pair at
    vertex i joins digit vectors d and d - A e_i with sign (-1)^{a_ii}.  A
    cycle of pairs returns to its start, so if it crosses the pairs of
    vertex i c_i times forward (d to d - A e_i) net of the times back, then
    A c = 0, and c = 0 because A is nonsingular.  So each family is crossed
    as often forward as back, an even number of times, and the cycle's
    parity, the sum of a_ii over its pairs, is even.  A pair that closes an
    odd cycle is an internal error.
    """
    form = intersection_form(forest)
    if not form.is_negative_definite:
        raise NotNegativeDefinite(
            "lattice homology is defined for negative-definite forests only"
        )
    box = BoxIndex(form, box_cap)
    n = len(forest)
    radices, strides = box.radices, box.strides

    starts, offsets, dead = [], [], 0
    for i in range(n):
        # from <k, v_i> = m_i (digit i at 0) the reflection sets digit i to
        # its top and moves each neighbour digit j by -a_ij
        stays = [range(r) for r in radices]
        extremal = list(stays)
        stays[i], extremal[i] = (0,), (0, radices[i] - 1)
        offset = (radices[i] - 1) * strides[i]
        for j in range(n):
            a_ij = form.matrix[i][j]
            if j != i and a_ij:
                stays[j] = range(max(0, a_ij), radices[j] + min(0, a_ij))
                offset -= a_ij * strides[j]
        bits = box.bitset(stays)
        # an extremal vector at v_i that is neither end of a pair escapes;
        # the pair ends starts + offset are the mirror images of the starts
        dead |= box.bitset(extremal) & ~(bits | box.shift(bits, offset))
        starts.append(bits)
        offsets.append(offset)

    # a pair with one flagged end flags the other; sweep every reflection at
    # once until no flag moves, so each pair is flagged at both ends or neither
    while True:
        before = dead
        for bits, offset in zip(starts, offsets):
            ends = (dead | box.shift(dead, -offset)) & bits
            dead |= ends | box.shift(ends, offset)
        if dead == before:
            break

    # only alive pairs that close no commuting square enter the union-find;
    # the kept starts replace the starts in place
    alive = dead ^ ((1 << box.size) - 1)
    for i, bits in enumerate(starts):
        starts[i] = bits & alive
    box.square_free(starts)

    # each pair links the roots of its ends, found as by _find, inlined; a
    # family's bitset is popped, so it is freed once its starts are listed
    links: dict[int, int] = {}
    get = links.get
    rels = [m % 2 for m in forest.framings]
    while starts:
        offset, rel = offsets.pop(), rels.pop()
        for a in box.set_bits(starts.pop()):
            ra, rb, s = a, a + offset, rel
            while (link := get(ra)) is not None:
                up = get(link >> 1)
                if up is not None:  # point ra at its grandparent
                    link = links[ra] = up ^ link & 1
                s ^= link & 1
                ra = link >> 1
            while (link := get(rb)) is not None:
                up = get(link >> 1)
                if up is not None:
                    link = links[rb] = up ^ link & 1
                s ^= link & 1
                rb = link >> 1
            if ra == rb:
                if s:
                    raise InternalInvariantViolation(
                        f"box vectors {box.evals(a)} and {box.evals(a + offset)} "
                        "close a cycle of odd sign parity"
                    )
            elif ra < rb:
                links[rb] = ra << 1 | s
            else:
                links[ra] = rb << 1 | s

    # the classes: alive roots in index order, grouped by orbit key
    root_refs: dict[int, int] = {}
    orbit_classes: dict[tuple[int, ...], list[int]] = {}
    for a in box.set_bits(alive):
        if a not in links:
            orbit_classes.setdefault(box.key(a), []).append(len(root_refs))
            root_refs[a] = len(root_refs)

    # keys take |det| values on the box, so this says every orbit has a class
    det_abs = abs(form.determinant)
    if len(orbit_classes) != det_abs:
        raise InternalInvariantViolation(
            f"classes meet {len(orbit_classes)} of |det| = {det_abs} orbits; "
            "every orbit carries a generator"
        )
    total_dim = len(root_refs)
    if total_dim < det_abs:
        raise InternalInvariantViolation(
            f"total dimension {total_dim} fell below |det| = {det_abs}"
        )

    return HomologyResult(
        forest=forest,
        form=form,
        convention=forest.edge_sign,
        total_dim=total_dim,
        box=box,
        links=links,
        root_refs=root_refs,
        orbit_classes=orbit_classes,
    )


def class_of(k: CharVector | Sequence[int], result: HomologyResult) -> ClassRef:
    """Class and relative sign of a characteristic vector; ZERO off the box.

    The vector-level lookup, which the index columns of
    :func:`~plumblat.moves.check_exactness` are tested against: it
    computes the box index of ``k`` and reads :meth:`HomologyResult.class_at`.
    A vector of the wrong length, or of the box but not characteristic,
    raises KeyError; an off-box coordinate gives ZERO before parity is
    looked at.  Dead vectors are roots of no class, so they give ZERO too.
    """
    evals = k.evals if isinstance(k, CharVector) else k
    box = result.box
    if len(evals) != len(box.framings):
        raise KeyError(f"{tuple(evals)} is not a box vector of this forest")
    # e - m is 2 d_v on a characteristic vector: sum the doubled index,
    # collecting the parities to check once
    doubled = odd = 0
    for e, m, stride in zip(evals, box.framings, box.strides):
        if not m <= e <= -m:
            return ZERO
        e -= m
        doubled += e * stride
        odd |= e
    if odd & 1:
        raise KeyError(f"{tuple(evals)} is not a box vector of this forest")
    index, s = result.class_at(doubled >> 1)
    return ZERO if index is None else ClassRef(index=index, sign=-1 if s else 1)


@dataclass(frozen=True)
class DerivedDimensions:
    """Floer-theoretic dimensions implied by the lattice data.

    For an almost-rational forest the even summand of the framed instanton
    homology of the boundary has the lattice dimension; the Euler
    characteristic |H_1| then pins the odd summand, the total, and the
    Heegaard Floer hat dimension.  Without that certification the numbers are
    flagged as conjectural.
    """

    dim_isharp_even: int
    dim_isharp_odd: int
    dim_isharp: int
    dim_hfhat: int
    is_instanton_lspace: bool
    conjectural: bool


def derived_dimensions(
    result: HomologyResult,
    *,
    almost_rational_certified: bool | None = None,
) -> DerivedDimensions:
    det = result.det_abs
    total = result.total_dim
    if total < det:
        raise NegativeOddDimension(
            f"dimension {total} below |det| = {det}: lower-bound invariant broken"
        )
    return DerivedDimensions(
        dim_isharp_even=total,
        dim_isharp_odd=total - det,
        dim_isharp=2 * total - det,
        dim_hfhat=2 * total - det,
        is_instanton_lspace=(total == det),
        conjectural=not bool(almost_rational_certified),
    )
