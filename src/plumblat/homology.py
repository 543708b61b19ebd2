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
union-find keyed by index that stores only parents, its roots the class
minima.  The signs need no bookkeeping: one 0/1 vector c with
A c = diag(A) mod 2 gives val(k) = (-1)^{c . (d(k) - d(root))} val(root)
on every class (proof at :func:`compute_homology`), so no class is killed
by k ~ -k.  That union-find is the one class table: the classes are the
alive roots in index order, :meth:`HomologyResult.columns` reads the
class and sign of box indices off it and off c, one column of index
terms at a time, and :func:`class_of` reads a vector's box index
(:meth:`~plumblat.charlattice.BoxIndex.index`) as a one-term column.
Each class's orbit key is ``box.key`` of its root.  The object views --
``classes``, with each representative ``box.evals`` of its root, and
``per_orbit``, with each orbit's representative its least member from
``box.orbits`` -- are built the first time they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .charlattice import BoxIndex, CharVector, SpinCOrbit
from .errors import (
    DEFAULT_BOX_CAP,
    InternalInvariantViolation,
    NegativeOddDimension,
    NotNegativeDefinite,
)
from .intlinalg import parity_vector
from .plumbing import IntersectionForm, PlumbingForest, intersection_form


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

    The class table is integers only.  ``links`` is the union-find over
    box indices, each non-root mapped to its parent, which is smaller, so
    roots are class minima; ``root_refs`` maps the root of each nonzero
    class to its class index, and ``orbit_classes`` maps each orbit key
    (one int, :meth:`~plumblat.charlattice.BoxIndex.key` of the root) to
    the indices of its classes.  ``parity`` is the 0/1 vector c with
    A c = diag(A) mod 2 that carries the signs: val(a) = (-1)^{P(a) - P(r)}
    val(r) for a in the class of root r, P(a) = c . d(a) mod 2 on the box
    digits d (proof at :func:`compute_homology`).  :meth:`columns` reads
    ``links``, ``root_refs`` and the P values, from tables built the first
    time a sign is read: one per head and one per tail of the box, and one
    per root, taken from ``root_refs``.  It only reads ``links``, so
    threads may share a result.  ``box`` is the box the classes were found
    in, with its orbit keys.

    ``classes`` (the nonzero classes in order of their lex-least members)
    and ``per_orbit`` are object views of that table, built the first time
    they are read; a caller that needs only dimensions and class indices
    never builds them.  ``zero_class`` stands for every box vector that
    dies; it does not list them.
    """

    forest: PlumbingForest
    form: IntersectionForm
    total_dim: int
    box: BoxIndex = field(repr=False)
    links: dict[int, int] = field(repr=False)
    root_refs: dict[int, int] = field(repr=False)
    orbit_classes: dict[int, list[int]] = field(repr=False)
    parity: tuple[int, ...] = field(repr=False)

    @property
    def det_abs(self) -> int:
        return abs(self.form.determinant)

    @property
    def zero_class(self) -> SignedClass:
        return _ZERO_CLASS

    @cached_property
    def _signs(self) -> tuple[bytes, bytes, int, dict[int, tuple[int, int]]]:
        """P per head and per tail of the box, built digit by digit like
        the key parts, the tail table's length, and (class index, P(root))
        per root: P(a) = heads[a // low] ^ tails[a % low]."""
        box, c = self.box, self.parity
        split = len(box.heads[0])
        tables = []
        for start, stop in ((0, split), (split, len(c))):
            parts = b"\0"
            for v in range(start, stop):
                cv = c[v]
                parts = bytes([x ^ d & cv for x in parts for d in range(box.radices[v])])
            tables.append(parts)
        heads, tails = tables
        low = box.low
        refs = {r: (i, heads[r // low] ^ tails[r % low]) for r, i in self.root_refs.items()}
        return heads, tails, low, refs

    def columns(
        self, term_lists: Iterable[Iterable[tuple[int, int]]]
    ) -> Iterator[dict[int, int]]:
        """Per list of (coefficient, box index) terms, its nonzero
        coordinates in the class basis, yielded one column at a time.  Each
        term's index walks ``links`` up to its root; a dead root adds
        nothing, a class root r adds the coefficient times (-1)^{P(a) - P(r)}
        to r's class."""
        heads, tails, low, refs = self._signs
        get, ref_of = self.links.get, refs.get
        for terms in term_lists:
            coords: dict[int, int] = {}
            for coeff, a in terms:
                root = a
                while (up := get(root)) is not None:
                    root = up
                ref = ref_of(root)
                if ref is not None:
                    i, s = ref
                    if s ^ heads[a // low] ^ tails[a % low]:
                        coeff = -coeff
                    coords[i] = coords.get(i, 0) + coeff
            yield {i: c for i, c in coords.items() if c}

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


def compute_homology(
    forest: PlumbingForest, *, box_cap: int = DEFAULT_BOX_CAP
) -> HomologyResult:
    """Quotient of the box by the signed reflection relations, per orbit.

    The union-find joins the two ends of each kept pair and stores no
    sign; the signs come from one 0/1 vector c with A c = diag(A) mod 2
    (:func:`~plumblat.intlinalg.parity_vector`, on rows read off the
    edges).  A pair at vertex v joins digit vectors d and d - A e_v with
    val(d - A e_v) = (-1)^{a_vv} val(d).  Its ends differ in P = c . d
    mod 2 by c . A e_v = (A c)_v = a_vv mod 2,
    so the relation reads val(d') = (-1)^{P(d') - P(d)} val(d) on every
    pair, and along any path from a root r, val(a) = (-1)^{P(a) - P(r)}
    val(r).  Every relation is thus met by the nonzero assignment
    val(a) = (-1)^{P(a)} on each class, so no relation identifies a vector
    with its own negative and no class dies of a sign.  The proof rests on
    two facts: c solves A c = diag(A) mod 2, and each kept pair's indices
    differ by the digit move -A e_v with no carry, which the pair offsets
    and starts guarantee (``test_engine_matches_reference_engine`` checks
    every sign against the reference engine).  The first is checked once
    per call, n row parities; a failure is an internal error.
    """
    form = intersection_form(forest)
    if not form.is_negative_definite:
        raise NotNegativeDefinite(
            "lattice homology is defined for negative-definite forests only"
        )
    box = BoxIndex(form, box_cap)
    n = len(forest)
    # A mod 2 from the edges: an edge entry is odd in both conventions
    rows = [(m & 1) * (1 << i | 1 << n) | sum([1 << j for j in near])
            for i, (m, near) in enumerate(zip(forest.framings, forest.adjacency))]
    parity = tuple(parity_vector(rows))
    ones = [j for j, x in enumerate(parity) if x]
    for i, row in enumerate(form.matrix):
        if (sum([row[j] for j in ones]) - row[i]) & 1:
            raise InternalInvariantViolation(
                f"the parity vector {parity} fails A c = diag(A) mod 2 at row {i}"
            )
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

    # each pair links the roots of its ends, walking up with path halving;
    # the families run in vertex order, each bitset freed once its starts
    # are listed
    links: dict[int, int] = {}
    get = links.get
    for offset in offsets:
        for a in box.set_bits(starts.pop(0)):
            ra, rb = a, a + offset
            while (parent := get(ra)) is not None:
                up = get(parent)
                if up is not None:  # point ra at its grandparent
                    parent = links[ra] = up
                ra = parent
            while (parent := get(rb)) is not None:
                up = get(parent)
                if up is not None:
                    parent = links[rb] = up
                rb = parent
            if ra < rb:
                links[rb] = ra
            elif rb < ra:
                links[ra] = rb

    # the classes: alive roots in index order, grouped by orbit key
    roots = sorted(set(box.set_bits(alive)).difference(links))
    root_refs = {a: i for i, a in enumerate(roots)}
    orbit_classes: dict[int, list[int]] = {}
    for i, a in enumerate(roots):
        orbit_classes.setdefault(box.key(a), []).append(i)

    # keys take |det| values on the box: every orbit has a class, so total_dim >= |det|
    det_abs = abs(form.determinant)
    if len(orbit_classes) != det_abs:
        raise InternalInvariantViolation(
            f"classes meet {len(orbit_classes)} of |det| = {det_abs} orbits; "
            "every orbit carries a generator"
        )

    return HomologyResult(
        forest=forest,
        form=form,
        total_dim=len(root_refs),
        box=box,
        links=links,
        root_refs=root_refs,
        orbit_classes=orbit_classes,
        parity=parity,
    )


def class_of(k: CharVector | Sequence[int], result: HomologyResult) -> ClassRef:
    """Class and relative sign of a characteristic vector; ZERO off the box.

    The vector-level lookup, which the index columns of
    :func:`~plumblat.moves.check_exactness` are tested against: it reads
    the box index of ``k`` (:meth:`~plumblat.charlattice.BoxIndex.index`)
    as a one-term column of :meth:`HomologyResult.columns`.
    A vector of the wrong length, or of the box but not characteristic,
    raises KeyError; an off-box coordinate gives ZERO before parity is
    looked at.  Dead vectors are roots of no class, so they give ZERO too.
    """
    a = result.box.index(k.evals if isinstance(k, CharVector) else k)
    column = {} if a is None else next(result.columns([[(1, a)]]))
    if not column:
        return ZERO
    ((index, sign),) = column.items()
    return ClassRef(index=index, sign=sign)


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
    total: int,
    det: int,
    *,
    almost_rational_certified: bool | None = None,
) -> DerivedDimensions:
    """The dimensions implied by a lattice homology dimension ``total`` and
    the determinant ``det``, whichever engine gave ``total``."""
    det = abs(det)
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
