"""Characteristic vectors, spin^c orbits, and the characteristic box.

A characteristic vector is an integer functional k on the vertex lattice with
<k, x> congruent to (x, x) mod 2; it is stored through its evaluations on the
vertex basis.  For a negative-definite form, every functional that is nonzero
in the quotient homology satisfies v^2 <= <k, v> <= -v^2 on every vertex, so
the finite "box" of such evaluations carries all generators.

Orbits of the translation action k -> k + 2x* partition the characteristic
vectors; distinct orbits correspond to spin^c structures on the boundary and
there are exactly |det| of them, each meeting the box.  Orbit membership is
decided exactly: k and k' lie in the same orbit iff their digit vectors
(k - m)/2 differ by a vector of A Z^n, tested through one integer Smith
normal form U A V = D.  An orbit key is one int that packs the residues
U d mod d_i, one field per invariant factor d_i above 1, so that two keys
add with no carry between fields; no rationals appear in the hot path.

:class:`BoxIndex` is the one box layer both engines read: it addresses box
vectors by mixed-radix indices, decodes each index and its orbit key from
a head and a tail table of about sqrt(size) entries each, and
:meth:`BoxIndex.orbits` is the one scan that splits the box into orbits;
:meth:`BoxIndex.members` walks a single orbit from its key.
:meth:`BoxIndex.splice` carries indices between boxes that differ at one
vertex, as the three boxes of a surgery triple do.

In box digits (k_v = m_v + 2 d_v) the faces of the box read: k_v = -m_v
iff d_v = -m_v, its top, and k_v = m_v iff d_v = 0.  The vector
k + 2s A e_v moves d_v by s m_v and each neighbour digit by s times the
edge sign, so from the face s k_v = -m_v it lands at index a + s up_v,
up_v = m_v stride_v + sign sum_{u ~ v} stride_u, and is in the box iff no
neighbour digit already sits at the end it moves past.  The graded engine
(:mod:`plumblat.hplus`) builds its whole-box face bitsets from these.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from typing import Sequence

from . import intlinalg
from .errors import (
    DEFAULT_BOX_CAP,
    BoxTooLarge,
    InternalInvariantViolation,
    NotNegativeDefinite,
    ParityViolation,
)
from .plumbing import CanonicalClass, IntersectionForm

_BYTE_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]
_NONZERO = bytes([0] + [1] * 255)  # a translation table: 1 per nonzero byte
_ONE = re.compile(b"\x01")


@dataclass(frozen=True)
class CharVector:
    """Evaluations of an integer functional on the vertex basis.

    The characteristic parity invariant is checked by
    :func:`is_characteristic` where it matters, not by the container.
    """

    evals: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.evals)


@dataclass(frozen=True)
class LatticeVector:
    """Integer coordinates of a second-homology class in the vertex basis."""

    coords: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class SpinCOrbit:
    """A translation orbit of characteristic vectors.

    ``representative`` is the lexicographically least box member, ``index``
    its position among the |det| orbits sorted by representative.
    """

    representative: CharVector
    index: int


def is_characteristic(k: CharVector | Sequence[int], form: IntersectionForm) -> bool:
    evals = k.evals if isinstance(k, CharVector) else tuple(k)
    return all(
        (evals[i] - form.matrix[i][i]) % 2 == 0 for i in range(len(form))
    )


def box_ranges(form: IntersectionForm) -> list[range]:
    """Per-vertex evaluation ranges {m, m+2, ..., -m} of the box."""
    return [range(m, -m + 1, 2) for m in (row[i] for i, row in enumerate(form.matrix))]


class BoxIndex:
    """The characteristic box of a negative-definite form, with its orbits.

    Digit d_v runs over [0, -m_v] and stands for the evaluation
    k_v = m_v + 2 d_v.  Vertex 0 is the most significant digit, so index
    order is lexicographic order of evaluation tuples, and negating a vector
    maps index i to ``size - 1 - i``.  The size is checked against
    ``box_cap`` first, before anything proportional to it is allocated.

    Index a = high * low + rest decodes as ``heads[high] + tails[rest]``:
    the evaluation tuples of a prefix and a suffix of the vertices, split so
    that each table holds about sqrt(size) entries.  ``head_keys`` and
    ``tail_keys`` hold their packed orbit key parts, which add to the key
    of a under :meth:`OrbitIndexer.reduce`.
    """

    def __init__(self, form: IntersectionForm, box_cap: int):
        self.framings = tuple(row[i] for i, row in enumerate(form.matrix))
        self.radices = tuple(1 - m for m in self.framings)
        strides, self.size = [], 1
        for radix in reversed(self.radices):
            strides.insert(0, self.size)
            self.size *= radix
        self.strides = tuple(strides)
        if self.size > box_cap:
            raise BoxTooLarge(f"box holds {self.size} vectors, cap is {box_cap}")
        self.form = form
        self.indexer = OrbitIndexer(form)
        split, self.low = len(self.radices), 1
        while split and (self.low * self.radices[split - 1]) ** 2 <= self.size:
            split -= 1
            self.low *= self.radices[split]
        ranges = box_ranges(form)
        self.heads = list(product(*ranges[:split]))
        self.tails = list(product(*ranges[split:]))
        self.head_keys = self._key_table(0, split)
        self.tail_keys = self._key_table(split, len(ranges))

    def _key_table(self, start: int, stop: int) -> list[int]:
        """Key parts of the half-vectors on vertices start..stop-1, in table
        order: from the zero key of all digits 0, digit d_v adds d_v times
        the packed column v of U, so each entry is its parent plus one of
        the reduced multiples of that column."""
        indexer = self.indexer
        if indexer.key(self.framings[start:stop], start):
            raise InternalInvariantViolation("the zero digits have a nonzero key")
        if not indexer.moduli:
            return [0] * prod(self.radices[start:stop])
        below, tops, shift, top = indexer.carry  # OrbitIndexer.reduce, inlined
        table = [0]
        for v in range(start, stop):
            column, multiples = indexer.packed(indexer.columns[v]), [0]
            for _ in range(1, self.radices[v]):
                multiples.append(indexer.reduce(multiples[-1] + column))
            table = [
                y - (((y + below) & tops) >> shift) * top
                for x in table
                for e in multiples
                for y in (x + e,)
            ]
        return table

    def evals(self, index: int) -> tuple[int, ...]:
        high, rest = divmod(index, self.low)
        return self.heads[high] + self.tails[rest]

    def index(self, evals: Sequence[int]) -> int | None:
        """The inverse of :meth:`evals`, None if a coordinate is off the box
        (parity unread); KeyError on the wrong length or a non-characteristic
        vector of the box."""
        if len(evals) != len(self.framings):
            raise KeyError(f"{tuple(evals)} is not a box vector of this forest")
        # e - m is 2 d_v: sum the doubled index, checking parities once
        doubled = odd = 0
        for e, m, stride in zip(evals, self.framings, self.strides):
            if not m <= e <= -m:
                return None
            e -= m
            doubled += e * stride
            odd |= e
        if odd & 1:
            raise KeyError(f"{tuple(evals)} is not a box vector of this forest")
        return doubled >> 1

    def key(self, index: int) -> int:
        """The orbit key of box index ``index``, as :meth:`OrbitIndexer.key`
        gives it for ``evals(index)``: the reduced sum of its key parts."""
        high, rest = divmod(index, self.low)
        return self.indexer.reduce(self.head_keys[high] + self.tail_keys[rest])

    def splice(self, index: int, v: int, radix: int) -> tuple[int, range]:
        """Carry an index of a box that differs from this one only at vertex
        v, where it has radix ``radix`` (1 for a box without vertex v).

        Returns the digit of v in ``index`` and the indices of this box
        that agree with ``index`` off v, in order of their digit of v.  The
        strides after v are the same in both boxes, so with s the stride of
        v here and (high, low) = divmod(index, s), the digit is high mod
        ``radix`` and the indices are (high // radix) r_v s + e s + low for
        e in 0..r_v - 1.
        """
        stride = self.strides[v]
        high, low = divmod(index, stride)
        high, digit = divmod(high, radix)
        start = high * self.radices[v] * stride + low
        return digit, range(start, start + self.radices[v] * stride, stride)

    def orbits(self) -> dict[int, int]:
        """Split the whole box into spin^c orbits: each orbit key mapped to
        its least member, in order of least member.

        Tails are grouped by key part and heads walked in index order, so a
        key's first sighting is its least member; the scan stops once |det|
        orbits have been seen.  :meth:`members` walks one orbit's members.
        """
        below, tops, shift, top = self.indexer.carry  # OrbitIndexer.reduce, inlined
        expected, groups = abs(self.indexer.determinant), list(self._tail_groups.items())
        least: dict[int, int] = {}
        for high, head_key in enumerate(self.head_keys):
            base = high * self.low
            for tail_key, rests in groups:
                x = head_key + tail_key
                key = x - (((x + below) & tops) >> shift) * top
                if key not in least:
                    least[key] = base + rests[0]
            if len(least) >= expected:
                break
        if len(least) != expected:
            raise InternalInvariantViolation(f"box met {len(least)} orbits, |det| = {expected}")
        return least

    def members(self, key: int) -> list[int]:
        """The members of the orbit with key ``key``, in increasing order:
        each head h meets the tails whose key part completes ``key``, the
        reduced sum of ``key`` and ``full - h``, which negates h."""
        below, tops, shift, top = self.indexer.carry  # OrbitIndexer.reduce, inlined
        groups, start = self._tail_groups, key + self.indexer.full
        out: list[int] = []
        for high, head_key in enumerate(self.head_keys):
            x = start - head_key
            rests = groups.get(x - (((x + below) & tops) >> shift) * top)
            if rests:
                base = high * self.low
                out.extend([base + r for r in rests])
        return out

    @cached_property
    def _tail_groups(self) -> dict[int, list[int]]:
        """The tail table's positions by key part, each list increasing."""
        groups: dict[int, list[int]] = {}
        for rest, key in enumerate(self.tail_keys):
            groups.setdefault(key, []).append(rest)
        return groups

    def bitset(self, digits: Sequence[Sequence[int]]) -> int:
        """The sub-box with d_v in digits[v], as an int with bit a set for
        each of its indices a.

        Built from the last vertex up: the sub-box of vertices v.. is one
        shifted copy of the sub-box of vertices v+1.. per allowed digit d_v.
        """
        bits = 1
        for stride, allowed in zip(reversed(self.strides), reversed(digits)):
            grown = 0
            for d in allowed:
                grown |= bits << d * stride
            bits = grown
        return bits

    def square_free(self, starts: list[int]) -> None:
        """Drop from each pair family the pairs that close a commuting square.

        ``starts[v]`` holds the alive starts P_v of the pairs a, a + o_v at
        vertex v, where one sign s = +-1 serves every v and o_v moves the
        digit vector by -s A e_v; "alive" is a set of whole pairs.  Both
        union-finds walk such families: the reflection pairs of
        :func:`~plumblat.homology.compute_homology` start at d_v = 0 (s = 1),
        and the births' faces at d_v at its top (s = -1), the same pairs
        read from their other ends.  Each entry is replaced, in place, by
        P_v & ~U{P_u : u < v, u not adjacent to v}.  Over the kept pairs a
        union-find finds the same classes.

        The square: for u and v not adjacent, a in P_u and P_v puts a + o_u
        in P_v and a + o_v in P_u, so the v-pair at a is replaced by the
        path a, a + o_u, a + o_u + o_v, a + o_v.  Read from d_v = 0 (the
        negation a -> size - 1 - a maps each family and the alive set onto
        themselves with ends swapped, which gives s = -1):

        * Distance >= 3, or separate components.  The u-move touches
          neither v's digit nor the digits of v's neighbours.  The alive
          set is a union of whole pairs.  So a in P_u and P_v implies
          a + o_u in P_v and a + o_v in P_u.
        * Distance 2, shared neighbour w.  Suppose a + o_u leaves v's range
          at w.  Then a + o_u sits at an end of w, yet with v's digit still
          0 it is neither a w-start nor a w-end (the w-pair at that end
          needs v's digit off 0).  So it escapes, and its partner a is
          dead, which is a contradiction.
        * Adjacent vertices stay out of the union.  With -1 edges they
          share starts, and those close no square.

        Connectivity, by induction on v: the kept pairs below v join what
        all pairs below v join, and a dropped v-pair at a is replaced by
        two u-pairs (u < v) and the v-pair at a + o_u; if that one was
        dropped too, repeat from a + o_u.  The starts so visited move by
        sums of the translations -s A e_u with nonnegative coefficients,
        which cannot close a cycle because A is nonsingular, so in the
        finite box the walk ends at a kept pair.
        """
        matrix = self.form.matrix
        for v in reversed(range(len(starts))):  # P_u, u < v, still original
            closing = 0
            for u in range(v):
                if not matrix[u][v]:
                    closing |= starts[u]
            starts[v] ^= starts[v] & closing

    @staticmethod
    def shift(bits: int, offset: int) -> int:
        """Move every bit a of the bitset to a + offset."""
        return bits << offset if offset >= 0 else bits >> -offset

    @staticmethod
    def set_bits(bits: int) -> list[int]:
        """The indices in a bitset, in increasing order: the nonzero bytes
        are found by a scan in C, and only they are expanded into bits."""
        data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        flags = data.translate(_NONZERO)
        starts = [8 * m.start() for m in _ONE.finditer(flags)]
        nonzero = data.translate(None, b"\0")
        return [a + j for a, byte in zip(starts, nonzero) for j in _BYTE_BITS[byte]]


class OrbitIndexer:
    """Exact orbit keys: k = m + 2d and k' = m + 2d' (m the framings) share
    an orbit iff d' - d is in A Z^n, iff U(d' - d) is in D Z^n for the Smith
    form U A V = D.  So U d mod the invariant factors above 1, ``moduli``,
    is a complete invariant; ``columns[v]`` is column v of those rows of U.

    A key packs the residues into one int.  Every d_i divides the largest,
    ``top`` (1 when there is none), and r_i mod d_i is stored as
    r_i top/d_i in field i, ``width`` = bit_length(2 top) + 1 bits wide;
    ``units[i]`` is top/d_i in field i.  Fields of a key lie in [0, top),
    so a sum of two keys has fields below 2 top - 1 and no carry crosses a
    field.  :meth:`reduce` takes such a sum back to a key: adding
    2^(width-1) - top to each field (``below``) sets the field's top bit
    (``tops``) iff the field is >= top, and those fields lose top;
    ``carry`` is (below, tops, width - 1, top).  ``full`` is top in every
    field, so ``full - h`` stands for -h.  Every constant is O(s) for s
    invariant factors, whatever |det| is.
    """

    def __init__(self, form: IntersectionForm):
        if not form.is_negative_definite:
            raise NotNegativeDefinite("orbit decomposition requires negative definiteness")
        self.form, self.n, self.determinant = form, len(form), form.determinant
        self.framings = tuple(row[i] for i, row in enumerate(form.matrix))
        factors = [f for f in zip(*intlinalg.smith_form(form.matrix)) if f[0] > 1]
        self.moduli = tuple(d for d, _ in factors)
        self.columns = [tuple(row[v] % d for d, row in factors) for v in range(self.n)]
        self.top = top = self.moduli[-1] if factors else 1
        if any(top % d for d in self.moduli):
            raise InternalInvariantViolation(f"invariant factors {self.moduli} are no chain")
        self.width = width = (2 * top).bit_length() + 1
        shifts = range(0, width * len(factors), width)
        self.units = tuple(top // d << s for d, s in zip(self.moduli, shifts))
        below = sum((1 << width - 1) - top << s for s in shifts)
        tops = sum(1 << s + width - 1 for s in shifts)
        self.carry = below, tops, width - 1, top
        self.full = sum(top << s for s in shifts)

    @cached_property
    def adjugate(self) -> list[list[int]]:  # read by hplus alone, for q(k) = k adj(A) k
        return intlinalg.adjugate(self.form.matrix)

    def key(self, k: CharVector | Sequence[int], start: int = 0) -> int:
        """U d mod the d_i, packed, for the k with evaluations ``k`` on
        vertices start, start + 1, ... and digits 0 elsewhere, so the keys
        of a prefix and the following suffix add under :meth:`reduce`;
        ParityViolation if k is not characteristic."""
        evals = k.evals if isinstance(k, CharVector) else k
        doubled = [e - m for e, m in zip(evals, self.framings[start:])]  # 2 d
        if any(x % 2 for x in doubled):
            raise ParityViolation(f"{tuple(evals)} is not characteristic")
        cols = self.columns[start : start + len(doubled)]
        sums = [sum([c[r] * x for c, x in zip(cols, doubled)]) for r in range(len(self.moduli))]
        return self.packed([s // 2 for s in sums])

    def packed(self, residues: Sequence[int]) -> int:
        """The key with residues r_i mod d_i, for any integers r_i."""
        return sum([r % d * unit for r, d, unit in zip(residues, self.moduli, self.units)])

    def reduce(self, x: int) -> int:
        """The key of x, a sum of two keys: top off each field >= top."""
        below, tops, shift, top = self.carry
        return x - (((x + below) & tops) >> shift) * top


def chi(x: LatticeVector, canonical: CanonicalClass, form: IntersectionForm) -> int:
    """-(<K, x> + (x, x))/2, the Riemann-Roch style count used for rationality."""
    n = len(form)
    coords = x.coords
    square = sum(
        form.matrix[i][j] * coords[i] * coords[j] for i in range(n) for j in range(n)
    )
    pairing = sum(canonical.evals[i] * coords[i] for i in range(n))
    total = pairing + square
    if total % 2:
        raise InternalInvariantViolation("canonical class failed the parity test")
    return -total // 2
