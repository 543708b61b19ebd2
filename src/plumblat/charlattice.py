"""Characteristic vectors, spin^c orbits, and the characteristic box.

A characteristic vector is an integer functional k on the vertex lattice with
<k, x> congruent to (x, x) mod 2; it is stored through its evaluations on the
vertex basis.  For a negative-definite form, every functional that is nonzero
in the quotient homology satisfies v^2 <= <k, v> <= -v^2 on every vertex, so
the finite "box" of such evaluations carries all generators.

Orbits of the translation action k -> k + 2x* partition the characteristic
vectors; distinct orbits correspond to spin^c structures on the boundary and
there are exactly |det| of them, each meeting the box.  Orbit membership is
decided exactly: k and k' lie in the same orbit iff A^{-1}(k' - k)/2 is an
integer vector, tested with the integer adjugate so no rationals appear in
the hot path.  Box vectors are addressed by mixed-radix indices
(:class:`BoxIndex`), and :func:`box_orbits` is the one scan that splits the
box into orbits, updating keys digit by digit.

In box digits (k_v = m_v + 2 d_v) the faces of the box read: k_v = -m_v
iff d_v = -m_v, its top, and k_v = m_v iff d_v = 0.  The vector
k + 2s A e_v moves d_v by s m_v and each neighbour digit by s (+1
convention), so from the face s k_v = -m_v it lands at index a + s up_v,
up_v = m_v stride_v + sum_{u ~ v} stride_u, and is in the box iff no
neighbour digit already sits at the end it moves past.  The graded engine
(:mod:`plumblat.hplus`) reads its births off these offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from . import intlinalg
from .errors import (
    BoxTooLarge,
    InternalInvariantViolation,
    NotNegativeDefinite,
)
from .plumbing import CanonicalClass, IntersectionForm

# compute_homology peaks at about 6 bytes of RSS per box vector on a box near
# the cap (5.8 at 1.9e7 vectors, 15 vertices; 13 at 9.4e5, where the classes
# weigh more), so the default box stays near 0.12 GiB
DEFAULT_BOX_CAP = 2 * 10**7


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


@dataclass(frozen=True)
class OrbitMembers:
    orbit: SpinCOrbit
    members: tuple[CharVector, ...]


def is_characteristic(k: CharVector | Sequence[int], form: IntersectionForm) -> bool:
    evals = k.evals if isinstance(k, CharVector) else tuple(k)
    return all(
        (evals[i] - form.matrix[i][i]) % 2 == 0 for i in range(len(form))
    )


def box_ranges(form: IntersectionForm) -> list[range]:
    """Per-vertex evaluation ranges {m, m+2, ..., -m} of the box."""
    return [range(m, -m + 1, 2) for m in (row[i] for i, row in enumerate(form.matrix))]


def in_box(evals: Sequence[int], form: IntersectionForm) -> bool:
    return all(
        form.matrix[i][i] <= evals[i] <= -form.matrix[i][i]
        for i in range(len(form))
    )


def enumerate_box(
    form: IntersectionForm, box_cap: int = DEFAULT_BOX_CAP
) -> list[CharVector]:
    """All characteristic vectors that can be nonzero in the quotient.

    Exactly the product of the per-vertex ranges; raises BoxTooLarge instead
    of truncating when the product exceeds ``box_cap``.
    """
    if not form.is_negative_definite:
        raise NotNegativeDefinite("box enumeration requires a negative-definite form")
    BoxIndex(form, box_cap)  # raises BoxTooLarge before enumerating
    return [CharVector(evals) for evals in product(*box_ranges(form))]


class BoxIndex:
    """Mixed-radix integer indices of the characteristic box.

    Digit d_v runs over [0, -m_v] and stands for the evaluation
    k_v = m_v + 2 d_v.  Vertex 0 is the most significant digit, so index
    order is lexicographic order of evaluation tuples, and negating a vector
    maps index i to ``size - 1 - i``.  The size is checked against
    ``box_cap`` here, before anything proportional to it is allocated.
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

    def evals(self, index: int) -> tuple[int, ...]:
        out = []
        for stride, m in zip(self.strides, self.framings):
            digit, index = divmod(index, stride)
            out.append(m + 2 * digit)
        return tuple(out)

    def halves(self) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
        """(low, heads, tails) with evals(a) == heads[a // low] + tails[a % low].

        heads and tails are the evaluation tuples of a prefix and a suffix
        of the vertices, split so that each table holds about sqrt(size)
        entries: a whole box decodes from two small tables instead of n
        divisions per index.
        """
        split, low = len(self.radices), 1
        while split and (low * self.radices[split - 1]) ** 2 <= self.size:
            split -= 1
            low *= self.radices[split]
        ranges = [range(m, -m + 1, 2) for m in self.framings]
        return low, list(product(*ranges[:split])), list(product(*ranges[split:]))

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


class OrbitIndexer:
    """Exact orbit keys for characteristic vectors of a fixed form.

    k and k' share an orbit iff adj(A)(k' - k) vanishes mod 2 det(A), so the
    residue tuple of adj(A) k is a complete orbit invariant over the integers.
    """

    def __init__(self, form: IntersectionForm):
        if not form.is_negative_definite:
            raise NotNegativeDefinite("orbit decomposition requires negative definiteness")
        self.form = form
        self.n = len(form)
        self.adjugate = intlinalg.adjugate(form.matrix)
        self.determinant = form.determinant
        self.modulus = 2 * abs(form.determinant)

    def key(self, k: CharVector | Sequence[int]) -> tuple[int, ...]:
        return self.key_part(k.evals if isinstance(k, CharVector) else k)

    def key_part(self, evals: Sequence[int], start: int = 0) -> tuple[int, ...]:
        """adj(A) k mod 2|det| for the k with evaluations ``evals`` on
        vertices start, start + 1, ... and 0 elsewhere.  Keys are additive,
        so the key of a whole vector is the sum of the parts of a prefix and
        the following suffix, mod 2|det|."""
        cols = self.adjugate[start : start + len(evals)]  # adj(A) is symmetric
        mod = self.modulus
        return tuple(
            [sum([c[r] * e for c, e in zip(cols, evals)]) % mod for r in range(self.n)]
        )

def box_orbits(
    indexer: OrbitIndexer, box: BoxIndex, *, members: bool = True
) -> dict[tuple[int, ...], list[int]]:
    """Split the whole box into spin^c orbits with one incremental-key scan.

    Maps each orbit key to the sorted indices of its members, or with
    ``members=False`` to its least (lex-least) member alone, in order of
    least member.  The scan runs digit by digit: a prefix (d_0..d_v, 0..0)
    is a box vector, and raising d_v by one adds the column 2 adj(A)[:, v]
    to its key.  Grouping prefixes by key at each level costs O(n) per
    distinct partial key, and walking groups in order of least member keeps
    that order at the next level.
    """
    mod = indexer.modulus
    n = indexer.n
    groups = {indexer.key(box.evals(0)): [0]}
    for v in range(n):
        column = [2 * indexer.adjugate[r][v] % mod for r in range(n)]
        stride = box.strides[v]
        grown: dict[tuple[int, ...], list[int]] = {}
        for key, idxs in groups.items():
            for d in range(box.radices[v]):
                if d:
                    key = tuple([(a + b) % mod for a, b in zip(key, column)])
                if members:
                    shift = d * stride
                    grown.setdefault(key, []).extend(
                        [x + shift for x in idxs] if shift else idxs
                    )
                elif key not in grown:
                    grown[key] = [idxs[0] + d * stride]
        groups = grown
    expected = abs(indexer.determinant)
    if len(groups) != expected:
        raise InternalInvariantViolation(
            f"box met {len(groups)} orbits, |det| = {expected}"
        )
    if members:
        for idxs in groups.values():
            idxs.sort()
    return groups


def orbit_decompose(
    box: Iterable[CharVector], form: IntersectionForm
) -> list[OrbitMembers]:
    """Partition the full box into spin^c orbits; exactly |det| of them.

    ``box`` must hold the whole box of ``form``, as :func:`enumerate_box`
    returns it; the caller's vectors are regrouped, not copied.
    """
    indexer = OrbitIndexer(form)
    by_evals = {k.evals: k for k in box}
    grid = BoxIndex(form, len(by_evals))
    out = []
    for idx, members in enumerate(box_orbits(indexer, grid).values()):
        vectors = tuple(by_evals[grid.evals(i)] for i in members)
        out.append(
            OrbitMembers(
                orbit=SpinCOrbit(representative=vectors[0], index=idx),
                members=vectors,
            )
        )
    return out


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
