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
neither, so a class is zero iff all its members are flagged, and only the
pairs with both ends alive -- a few percent of the box -- enter a union-find
keyed by index, whose links carry a sign parity and whose roots are class
minima.  A sign conflict (k ~ -k) kills its class.  That union-find is the
one class table: the classes are the alive roots that are not killed, in
index order, and :func:`class_of` finds a vector's root by its box index.
The box decodes every index, orbit keys included, from its head and tail
tables: a class's orbit is ``box.key`` of its root, its representative is
``box.evals`` of its root, and each orbit's representative is its least
member from ``box.orbits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .charlattice import DEFAULT_BOX_CAP, BoxIndex, CharVector, SpinCOrbit
from .errors import (
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


@dataclass(frozen=True)
class OrbitHomology:
    orbit: SpinCOrbit
    dim: int
    representatives: tuple[CharVector, ...]


@dataclass(frozen=True, eq=False)
class HomologyResult:
    """Quotient dimensions per spin^c orbit, with the class table.

    ``classes`` lists the nonzero classes in order of their lex-least
    members.  ``zero_class`` stands for every box vector that dies; it does
    not list them.  ``links`` is the signed union-find over box indices (see
    :func:`_find`), and ``root_refs`` maps the root of each nonzero class to
    its two :class:`ClassRef`, sign +1 and sign -1; :func:`class_of` reads
    both.  ``box`` is the box the classes were found in, with its orbit keys.
    """

    forest: PlumbingForest
    form: IntersectionForm
    convention: EdgeSign
    total_dim: int
    per_orbit: tuple[OrbitHomology, ...]
    classes: tuple[SignedClass, ...]
    zero_class: SignedClass
    box: BoxIndex = field(repr=False)
    links: dict[int, int] = field(repr=False)
    root_refs: dict[int, tuple[ClassRef, ClassRef]] = field(repr=False)

    @property
    def det_abs(self) -> int:
        return abs(self.form.determinant)


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
    """Quotient of the box by the signed reflection relations, per orbit."""
    form = intersection_form(forest)
    if not form.is_negative_definite:
        raise NotNegativeDefinite(
            "lattice homology is defined for negative-definite forests only"
        )
    box = BoxIndex(form, box_cap)
    n = len(forest)
    radices, strides = box.radices, box.strides

    pairs, dead = [], 0
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
        starts = box.bitset(stays)
        # an extremal vector at v_i that is neither end of a pair escapes;
        # the pair ends starts + offset are the mirror images of the starts
        dead |= box.bitset(extremal) & ~(starts | box.shift(starts, offset))
        pairs.append((starts, offset, forest.framings[i] % 2))

    # a pair with one flagged end flags the other; sweep every reflection at
    # once until no flag moves, so each pair is flagged at both ends or neither
    while True:
        before = dead
        for starts, offset, _ in pairs:
            ends = (dead | box.shift(dead, -offset)) & starts
            dead |= ends | box.shift(ends, offset)
        if dead == before:
            break

    links: dict[int, int] = {}
    conflicts = []
    for starts, offset, rel in pairs:
        for a in box.set_bits(starts & ~dead):
            b = a + offset
            ra, pa = _find(links, a)
            rb, pb = _find(links, b)
            if ra == rb:
                if pa ^ pb != rel:
                    conflicts.append(ra)  # k ~ -k: zero over a field of char != 2
            elif ra < rb:
                links[rb] = ra << 1 | pa ^ pb ^ rel
            else:
                links[ra] = rb << 1 | pa ^ pb ^ rel
    killed = {_find(links, a)[0] for a in conflicts}

    # the classes: alive roots, less the killed ones, in index order
    root_refs: dict[int, tuple[ClassRef, ClassRef]] = {}
    for a in box.set_bits(dead ^ ((1 << box.size) - 1)):
        if a not in links and a not in killed:
            cls_id = len(root_refs)
            root_refs[a] = ClassRef(index=cls_id, sign=1), ClassRef(index=cls_id, sign=-1)

    # orbits are read off the whole box so empty orbits cannot hide
    orbits = box.orbits(members=False)
    classes_of: dict[tuple[int, ...], list[int]] = {key: [] for key in orbits}
    classes: list[SignedClass] = []
    for cls_id, root in enumerate(root_refs):
        classes_of.setdefault(box.key(root), []).append(cls_id)
        classes.append(SignedClass(representative=CharVector(box.evals(root)), members=()))
    zero_class = SignedClass(representative=None, members=(), is_zero=True)

    det_abs = abs(form.determinant)
    per_orbit = []
    for orbit_index, (key, (least,)) in enumerate(orbits.items()):
        rep = box.evals(least)
        cls_ids = classes_of[key]
        if not cls_ids:
            raise InternalInvariantViolation(
                f"orbit of {rep} has dimension 0; every orbit carries a generator"
            )
        per_orbit.append(
            OrbitHomology(
                orbit=SpinCOrbit(representative=CharVector(rep), index=orbit_index),
                dim=len(cls_ids),
                representatives=tuple(classes[c].representative for c in cls_ids),
            )
        )

    total_dim = len(classes)
    if total_dim < det_abs:
        raise InternalInvariantViolation(
            f"total dimension {total_dim} fell below |det| = {det_abs}"
        )
    if total_dim != sum(o.dim for o in per_orbit):
        raise InternalInvariantViolation("per-orbit dimensions do not add up")

    return HomologyResult(
        forest=forest,
        form=form,
        convention=forest.edge_sign,
        total_dim=total_dim,
        per_orbit=tuple(per_orbit),
        classes=tuple(classes),
        zero_class=zero_class,
        box=box,
        links=links,
        root_refs=root_refs,
    )


def class_of(k: CharVector | Sequence[int], result: HomologyResult) -> ClassRef:
    """Class and relative sign of a characteristic vector; ZERO off the box.

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
    root, s = _find(result.links, doubled >> 1)
    refs = result.root_refs.get(root)
    return ZERO if refs is None else refs[s]


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
