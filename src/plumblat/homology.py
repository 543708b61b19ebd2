"""Lattice homology of a negative-definite plumbing forest.

The quotient is generated by the finite box of characteristic vectors,
subject to two families of relations at each vertex v:

* out-of-range vanishing: a vector with |<k, v>| > -v^2 is zero -- such
  vectors never enter the box, but reflection targets may leave it;
* extremal reflection: a vector with <k, v> = +-v^2 is identified with
  (-1)^{v^2} (k -+ 2v*).

Since every relation is monomial (k ~ +-k'), the quotient dimension over any
field of characteristic != 2 is the number of sign-consistent classes not
identified with zero.  The engine addresses the box by the mixed-radix
indices of :class:`~plumblat.charlattice.BoxIndex`: a reflection at v moves
an index by a fixed offset and changes only the digits of v and its
neighbours, so whether it leaves the box is decided for whole runs of
indices at once.  Escaping vectors are flagged in a byte array first; a pair
with a flagged end passes the flag on, and every other pair is united, once,
in a union-find whose parent pointers carry a sign parity and whose roots
are class minima.  A sign conflict (k ~ -k) flags the class.  A class is
zero iff some member is flagged, whatever the processing order, and only
members of nonzero classes become :class:`CharVector` objects.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

from .charlattice import (
    DEFAULT_BOX_CAP,
    BoxIndex,
    CharVector,
    OrbitIndexer,
    SpinCOrbit,
    box_orbits,
    in_box,
    is_characteristic,
)
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
    """A quotient class: members carry signs relative to the representative."""

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
    """Quotient dimensions per spin^c orbit, with class lookup tables.

    ``classes`` lists the nonzero classes in order of their lex-least
    members.  ``zero_class`` stands for every box vector that dies; it does
    not list them.  ``_lookup`` maps the evaluations of each nonzero-class
    member to its :class:`ClassRef`; :func:`class_of` reads it.
    """

    forest: PlumbingForest
    form: IntersectionForm
    convention: EdgeSign
    total_dim: int
    per_orbit: tuple[OrbitHomology, ...]
    classes: tuple[SignedClass, ...]
    zero_class: SignedClass
    _lookup: dict = field(repr=False)

    @property
    def det_abs(self) -> int:
        return abs(self.form.determinant)


def compute_homology(
    forest: PlumbingForest,
    *,
    box_cap: int = DEFAULT_BOX_CAP,
    signed: bool = True,
) -> HomologyResult:
    """Quotient of the box by the reflection relations, per orbit.

    ``signed=False`` drops the (-1)^{v^2} factor from the reflections; the
    dimensions agree with the signed version, which is asserted structurally
    elsewhere rather than assumed here.
    """
    form = intersection_form(forest)
    if not form.is_negative_definite:
        raise NotNegativeDefinite(
            "lattice homology is defined for negative-definite forests only"
        )
    box = BoxIndex(form, box_cap)
    n = len(forest)
    size = box.size
    radices, strides = box.radices, box.strides
    parent = array("q", range(size))  # parent[a] <= a; roots are class minima
    flip = bytearray(size)  # val(a) = (-1)^flip[a] val(parent[a])
    dead = bytearray(size)  # a class is zero iff some member is flagged

    def find(a: int) -> tuple[int, int]:
        """Root of a and the parity s with val(a) = (-1)^s val(root)."""
        p = parent[a]
        if p == a:
            return a, 0
        if parent[p] == p:
            return p, flip[a]
        path = []
        while parent[a] != a:
            path.append(a)
            a = parent[a]
        s = 0
        for node in reversed(path):
            s ^= flip[node]
            flip[node] = s
            parent[node] = a
        return a, s

    reflections = []
    for i in range(n):
        # from <k, v_i> = m_i (digit i at 0) the reflection sets digit i to
        # its top and moves each neighbour digit j by -a_ij
        stays = [range(r) for r in radices]
        stays[i] = (0,)
        offset = (radices[i] - 1) * strides[i]
        for j in range(n):
            a_ij = form.matrix[i][j]
            if j == i or not a_ij:
                continue
            lo, hi = max(0, a_ij), radices[j] + min(0, a_ij)
            escapes = list(stays)  # disjoint: earlier neighbours stay in range
            escapes[j] = [d for d in range(radices[j]) if not lo <= d < hi]
            starts, length = box.runs(escapes)
            ones = b"\x01" * length
            for x in starts:
                dead[x : x + length] = ones
                # the mirror image escapes from <k, v_i> = -m_i
                dead[size - x - length : size - x] = ones
            stays[j] = range(lo, hi)
            offset -= a_ij * strides[j]
        rel = 1 if (signed and forest.framings[i] % 2) else 0
        reflections.append((stays, offset, rel))

    # with every escape flagged first, most pairs touch a zero class: flagging
    # the partner instead of uniting leaves every nonzero class as it is
    for stays, offset, rel in reflections:
        starts, length = box.runs(stays)
        for start in starts:
            for a in range(start, start + length):
                b = a + offset
                if dead[a] or dead[b]:
                    dead[a] = dead[b] = 1
                    continue
                ra, pa = find(a)
                rb, pb = find(b)
                if ra == rb:
                    if pa ^ pb != rel:
                        dead[ra] = 1  # k ~ -k: zero over a field of char != 2
                    continue
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
                flip[rb] = pa ^ pb ^ rel

    # parents precede children, so one pass in index order flattens every
    # path and gathers each member's flag at its root, the lex-least member
    for a in range(size):
        root = parent[a]
        if root != a:
            top = parent[root]
            if top != root:
                parent[a] = top
                flip[a] ^= flip[root]
                root = top
            if dead[a]:
                dead[root] = 1
    members_of: dict[int, list[int]] = {}
    for a in [a for a, root in enumerate(parent) if not dead[root]]:
        members_of.setdefault(parent[a], []).append(a)

    classes: list[SignedClass] = []
    lookup: dict[tuple[int, ...], ClassRef] = {}
    for cls_id, members in enumerate(members_of.values()):
        signed_members = []
        for a in members:
            evals = box.evals(a)
            sign = -1 if flip[a] else 1
            signed_members.append((CharVector(evals), sign))
            lookup[evals] = ClassRef(index=cls_id, sign=sign)
        classes.append(
            SignedClass(
                representative=signed_members[0][0], members=tuple(signed_members)
            )
        )
    zero_class = SignedClass(representative=None, members=(), is_zero=True)

    indexer = OrbitIndexer(form)
    # orbits are read off the whole box so empty orbits cannot hide
    orbits = box_orbits(indexer, box, members=False)
    classes_of: dict[tuple[int, ...], list[int]] = {key: [] for key in orbits}
    for cls_id, cls in enumerate(classes):
        classes_of.setdefault(indexer.key(cls.representative), []).append(cls_id)
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
        _lookup=lookup,
    )


def class_of(k: CharVector | Sequence[int], result: HomologyResult) -> ClassRef:
    """Class and relative sign of a characteristic vector; ZERO off the box.

    A vector of the box that is not characteristic raises KeyError.
    """
    evals = k.evals if isinstance(k, CharVector) else tuple(k)
    ref = result._lookup.get(evals)
    if ref is not None:
        return ref
    form = result.form
    if len(evals) != len(form) or (
        in_box(evals, form) and not is_characteristic(evals, form)
    ):
        raise KeyError(f"{evals} is not a box vector of this forest")
    return ZERO


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
