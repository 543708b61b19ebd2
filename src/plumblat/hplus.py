"""Graded lattice cohomology of an orbit, and the kernel-of-U cross-oracle.

For a fixed characteristic vector k0, the weight w(x) = -((x,x) + <k0,x>)/2
filters the lattice by sublevel sets S_n.  Only zeroth cohomology is
tracked: rank H^0(S_n) is the number of connected components, where two
lattice points are adjacent when they differ by one basis step and both
carry weight <= n.  U acts by restricting a component function to the
previous level, so rank(ker U) counts the component births: components of
S_n disjoint from S_{n-1}.

The engine runs on characteristic vectors, never on lattice coordinates:
x <-> k = k0 + 2x* identifies the lattice with the orbit of k0, and there
w = (k0^2 - k^2)/8 with k^2 = k A^{-1} k, that is
w(k) = (q(k0) - q(k)) / (8 det) with q(k) = k adj(A) k.  The basis step
x +- e_v is the k-step k +- 2A e_v: +-2m_v at v and +-2 sign at each
neighbour, sign the edge sign.  Expanding the square gives the step
identity w(k +- 2A e_v) - w(k) = -(+-k_v + m_v)/2, read off k itself; it
and the weight are the same in either edge convention, so the engine runs
in the forest's own.

Births are computed without materializing any sublevel set.  A component of
S_n disjoint from S_{n-1} consists of points of weight exactly n, each of
which is a local minimum of w (its in-component neighbors share its weight
and everything else is heavier), and conversely a connected plateau of
weight-n local minima founds a new component unless some member has a
strictly lighter neighbor, or a same-weight neighbor that is not itself a
local minimum (such a neighbor has a lighter neighbor of its own, linking
the plateau to the previous level either way).  By the step identity the
local minima are exactly the orbit's box vectors (every step is >= 0 iff
|k_v| <= -m_v), and a step from a box vector is zero exactly on the face
+-k_v = -m_v: at most one tied direction per vertex.

Births are read off whole-box bitsets, once per table.  The face
k + 2A e_v is tied iff the digit d_v is at its top (k - 2A e_v iff
d_v = 0), sits up_v = m_v stride_v + sign sum_{u ~ v} stride_u index steps
away (-up_v), and is in the box iff no neighbour digit sits at the end it
moves past.  So T_v and Z_v, the vectors with an in-box top or zero face
at v, are products of digit sets, and Z_v is T_v moved by up_v.  Tops and
zeros outside them drain their plateaus; drains cross whole faces as
shifts by +-up_v until nothing moves.  Of the undrained faces, those that
close a commuting square with two others are dropped
(:meth:`~plumblat.charlattice.BoxIndex.square_free`), and the rest enter a
union-find over the undrained vectors, each root one birth.  up_v is the
index offset of the step column 2A e_v, which keeps every face in its
vector's orbit.  Weights come from q split over the box halves,
q(h) + q(t) + 2 h adj[head, tail] t, with the head and tail parts
tabulated once, digit by digit as the key parts are: each entry extends
its parent by one evaluation and carries its pairing row against the
later vertices, so an entry, and a box vector's q, cost O(n).  An orbit
enters by its least box index a, whose key and q(k0) are ``box.key(a)``
and ``q(a)``; only :func:`compute_hplus`, whose bare vector may lie off
the box, evaluates them from the vector.

Component counts for ranks do need sublevel sets, and come from a certified
breadth-first flood of characteristic vectors.  It is seeded with every box
vector of the orbit at its exact weight, walked from the orbit's key alone
(tails grouped by key part, heads in order), so the components it finds
newborn at each level must be exactly the plateau births, a check that
fails in both directions.  Two facts keep the sweep short and certify the
stopping level:

* every component of every S_n contains some newborn core, so
  rank H^0(S_n) <= total births; in particular a kernel rank of one forces
  every level to be connected and no sweep is needed at all;
* past the last birth level, a connected complex stays connected: any new
  point drains along a strictly descending path to a local minimum, whose
  plateau -- being birthless -- links to strictly lighter points and hence,
  inductively, to the connected core.

Every flooded point k of level n is checked against the exact integer bound
k_v^2 |det| <= -m_v (8n |det| - sign(det) q(k0)) at every vertex v, in O(n).
Proof: with P = -A positive definite, w(k) <= n reads k P^{-1} k <= 8n - k0^2,
and Cauchy-Schwarz in P^{-1} gives k_v^2 = (k P^{-1} P e_v)^2
<= (k P^{-1} k)(e_v P e_v) = -m_v (k P^{-1} k); multiply by |det|, using
|det| k0^2 = sign(det) q(k0).  A point cap guards runtime.

A flood point is one int of fixed-width biased fields, k_v + 2^31 in 32
bits per vertex, so a step is one addition of a packed column, and each
new point is decoded once, for its bound check and its step weights.
Packing is additive, and exact while every field stays in range: a step
moves a field by at most 2 max|m_v| from a point within the bound, so
each level checks isqrt(max limit) + 2 max|m_v| < 2^31 and otherwise
stops with :class:`~plumblat.errors.EnumerationBudgetExceeded`.

Every entry point reads its orbits from one :class:`_GradedOrbitTable` per
forest, built on the :class:`~plumblat.charlattice.BoxIndex` that
:func:`~plumblat.homology.compute_homology` built, or on one of its own.

The faces are the quotient engine's reflection pairs read from their other
ends, and the drains reach its alive set, so the births count the
components of the same graph.  What the cross-check against the quotient
(:func:`ker_u_cross_check`) has of its own is its code -- the face
bitsets, drains and union-find -- and the flood, which re-derives the
births of every orbit with more than one from sublevel sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from operator import mul
from struct import Struct

from .charlattice import BoxIndex, CharVector, SpinCOrbit, box_ranges
from .errors import (
    DEFAULT_BOX_CAP,
    DEFAULT_POINT_CAP,
    EnumerationBudgetExceeded,
    InternalInvariantViolation,
    NotNegativeDefinite,
)
from .homology import compute_homology
from .plumbing import PlumbingForest, UnionFind, intersection_form

# bytes per vertex in a packed flood point, unpacked as struct code "I"
_FIELD_BYTES = 4


@dataclass(frozen=True)
class HPlusLevel:
    level: int
    rank: int
    births: int


@dataclass(frozen=True)
class GradedHPlus:
    """Graded component counts for one orbit.

    ``levels`` runs over consecutive weights from the least local-minimum
    weight through ``stabilized_at``; from there on, the complex stays
    connected and nothing is born.
    ``ker_u_rank`` is the total number of births.
    """

    orbit: SpinCOrbit
    levels: tuple[HPlusLevel, ...]
    ker_u_rank: int
    stabilized_at: int


class _GradedOrbitTable:
    """The graded engine's setup on a box: step columns 2A e_v, face offsets
    up_v, the parts of q; whole-box births and orbit members on first use."""

    def __init__(self, box: BoxIndex):
        self.box, self.form, self.indexer = box, box.form, box.indexer
        self.columns = [tuple(2 * a for a in row) for row in self.form.matrix]

        # the top face k + 2A e_v: d_v to 0, each neighbour digit moved by a
        strides = box.strides
        self._up = [
            m * strides[v] + sum(a * strides[u] for u, a in enumerate(row) if u != v)
            for v, (m, row) in enumerate(zip(box.framings, self.form.matrix))
        ]
        # q(k) = q(h) + q(t) + 2 h adj[head, tail] t: per head its q and its
        # cross row adj[tail, head] h, per tail its q
        split = len(box.heads[0])
        self._head_q = self._q_table(0, split)
        self._tail_q = [q for q, _ in self._q_table(split, len(box.framings))]
        self._denom = 8 * self.indexer.determinant

    @classmethod
    def of(cls, forest: PlumbingForest, box_cap: int) -> _GradedOrbitTable:
        """The table of a forest's own box, for callers without one."""
        form = intersection_form(forest)
        if not form.is_negative_definite:
            raise NotNegativeDefinite("graded engine needs a negative-definite forest")
        return cls(BoxIndex(form, box_cap))

    def _q_table(self, start: int, stop: int) -> list[tuple[int, list[int]]]:
        """q = x adj(A) x of the half-vectors x on vertices start..stop-1,
        in table order, each with its pairing row adj[u, start:stop] x
        against the vertices u >= stop.

        Built digit by digit, as :meth:`BoxIndex._key_table` builds key
        parts: from the empty half-vector, evaluation e at vertex v adds
        e (2 r_v + adj[v][v] e) to q, r_v the entry of the row at v, and
        e adj[v][u] to the entry at each later u, then drops v.  So each
        entry costs O(n) over its parent's.
        """
        adj, table = self.indexer.adjugate, [(0, [0] * (len(self.box.framings) - start))]
        for v, evals in enumerate(box_ranges(self.form)[start:stop], start):
            diagonal, later = adj[v][v], adj[v][v + 1 :]
            table = [
                (q + e * (2 * row[0] + diagonal * e), [r + e * a for r, a in zip(row[1:], later)])
                for q, row in table
                for e in evals
            ]
        return table

    def q(self, a: int) -> int:
        """q(k) = k adj(A) k of the vector k at box index a, in O(n)."""
        high, rest = divmod(a, self.box.low)
        qh, cross = self._head_q[high]
        return qh + self._tail_q[rest] + 2 * sum(map(mul, cross, self.box.tails[rest]))

    def key_and_q(self, k0: CharVector) -> tuple[int, int]:
        """The orbit key and q(k0) of a characteristic vector on or off the
        box, from its evaluations; a box vector's index gives both cheaper,
        as ``box.key(a)`` and ``q(a)``."""
        return self.indexer.key(k0), _quadratic(self.indexer.adjugate, k0.evals)

    def weight(self, a: int, q0: int) -> int:
        """The weight (q(k0) - q(k)) / (8 det) of box index a, q0 = q(k0)."""
        level, rem = divmod(q0 - self.q(a), self._denom)
        if rem:
            raise InternalInvariantViolation("a box vector weight is not integral")
        return level

    def limits(self, q0: int, level: int) -> list[int]:
        """Per vertex v, a bound on k_v^2 over the vectors of weight <= level
        in the orbit of k0, q0 = q(k0): -m_v (8 level |det| - sign(det) q0),
        divided by |det| and rounded down."""
        det = abs(self.indexer.determinant)
        bound = 8 * level * det - (q0 if self.indexer.determinant > 0 else -q0)
        return [-m * bound // det for m in self.box.framings]

    @cached_property
    def _birth_roots(self) -> dict[int, list[int]]:
        """One box index per birth of the whole box, by orbit key."""
        box, shift, matrix = self.box, self.box.shift, self.form.matrix
        faces, drained = [], 0
        for v, (row, up, col) in enumerate(zip(matrix, self._up, self.columns)):
            if up != sum(c // 2 * stride for c, stride in zip(col, box.strides)):
                raise InternalInvariantViolation("a box face left its orbit")
            tops = [range(r) for r in box.radices]
            zeros = list(tops)
            tops[v], zeros[v] = (box.radices[v] - 1,), (0,)
            top_faces, zero_faces = list(tops), list(zeros)
            for u, a in enumerate(row):  # a moved digit must not pass its end
                if a and u != v:
                    ends = range(box.radices[u] - 1), range(1, box.radices[u])
                    top_faces[u], zero_faces[u] = ends if a > 0 else ends[::-1]
            top_bits, zero_bits = box.bitset(top_faces), box.bitset(zero_faces)
            if zero_bits != shift(top_bits, up):
                raise InternalInvariantViolation("zero faces are not top faces moved")
            drained |= box.bitset(tops) & ~top_bits | box.bitset(zeros) & ~zero_bits
            faces.append(top_bits)
        while True:  # then each plateau is drained in full or not at all
            before = drained
            for top_bits, up in zip(faces, self._up):  # a face with either end drained
                ends = (drained | shift(drained, -up)) & top_bits
                drained |= ends | shift(ends, up)
            if drained == before:
                break
        alive = ((1 << box.size) - 1) ^ drained
        for v, top_bits in enumerate(faces):  # the undrained faces, in place
            faces[v] = top_bits & alive
        if any(shift(top_bits, up) & drained for top_bits, up in zip(faces, self._up)):
            raise InternalInvariantViolation("a plateau drained in part")
        box.square_free(faces)  # faces that close a commuting square link nothing new
        # a union-find over the undrained vectors, inlined: each root is the
        # least member of its set, so one pass in order points all at roots
        members = box.set_bits(alive)
        position = {a: i for i, a in enumerate(members)}
        parent = list(range(len(members)))
        for top_bits, up in zip(faces, self._up):
            for a in box.set_bits(top_bits):
                ra, rb = position[a], position[a + up]
                while parent[ra] != ra:  # path halving
                    parent[ra] = ra = parent[parent[ra]]
                while parent[rb] != rb:
                    parent[rb] = rb = parent[parent[rb]]
                if ra < rb:
                    parent[rb] = ra
                elif rb < ra:
                    parent[ra] = rb
        roots: dict[int, list[int]] = {}
        keys: list[int | None] = [None] * len(members)
        for i, a in enumerate(members):
            root = parent[i] = parent[parent[i]]
            if root == i:
                keys[i] = key = box.key(a)
                roots.setdefault(key, []).append(a)
            elif box.key(a) != keys[root]:
                raise InternalInvariantViolation("a plateau member left its orbit")
        return roots

    def births(self, key: int, q0: int) -> dict[int, int]:
        """Births per level of the orbit with key ``key`` and representative
        k0, q0 = q(k0), in increasing level order: the birth roots of its
        key, each at its weight, counted over the sorted weights."""
        roots = self._birth_roots.get(key)
        if not roots:
            raise InternalInvariantViolation("an orbit has no birth")
        counts: dict[int, int] = {}
        for level in sorted([self.weight(a, q0) for a in roots]):
            counts[level] = counts.get(level, 0) + 1
        return counts

    def hplus(
        self, orbit: SpinCOrbit, key: int, q0: int, point_cap: int
    ) -> GradedHPlus:
        """Level table of one orbit, with key ``key`` and q0 = q(k0) of its
        representative k0, counting its births once.

        A single birth is the global minimum plateau and needs no flood;
        more births flood the orbit from its box vectors."""
        births = self.births(key, q0)
        ker_u_rank = sum(births.values())
        if ker_u_rank == 1:
            levels = [HPlusLevel(level=min(births), rank=1, births=1)]
        else:
            levels = _sweep_levels(self, key, q0, births, point_cap)
        return GradedHPlus(
            orbit=orbit,
            levels=tuple(levels),
            ker_u_rank=ker_u_rank,
            stabilized_at=levels[-1].level,
        )


def _quadratic(adj: list[list[int]], k) -> int:
    """k^T adj(A) k."""
    return sum(e * sum(map(mul, row, k)) for e, row in zip(k, adj))


def _sweep_levels(
    table: _GradedOrbitTable,
    key: int,
    q0: int,
    births: dict[int, int],
    point_cap: int,
) -> list[HPlusLevel]:
    """Exact per-level component counts by certified flood of the orbit with
    key ``key`` (q0 = q(k0) of its representative), with births re-derived
    independently and compared against the plateau counts, up to the
    stabilization level, which is the last.

    A point k is one int, field v holding k_v + bias in ``_FIELD_BYTES``
    bytes at byte v * _FIELD_BYTES; packing is additive, so a step is
    p +- the packed column.  A step moves field v by at most 2 max|m| and
    starts from a point that passed the bound |k_v| <= isqrt(limit_v), so
    while isqrt(max limit) + 2 max|m| < bias at each level no field leaves
    [0, 2 bias): the ints stay distinct and decode exactly."""
    box = table.box
    width = 8 * _FIELD_BYTES
    bias, shifts = 1 << width - 1, range(0, width * len(box.framings), width)
    unpack = Struct(f"<{len(shifts)}I").unpack
    nbytes, reach = _FIELD_BYTES * len(shifts), 2 * max(map(abs, box.framings))
    seeds: dict[int, list[int]] = {}
    for a in box.members(key):
        if box.key(a) != key:
            raise InternalInvariantViolation("a flood seed left its orbit")
        seeds.setdefault(table.weight(a, q0), []).append(a)
    # per vertex: the packed column, and the biases that turn a field u of
    # k into the step weights -(k_v + m_v)/2 and (k_v - m_v)/2
    steps = [
        (sum(c << s for c, s in zip(column, shifts)), m - bias, -m - bias)
        for column, m in zip(table.columns, box.framings)
    ]
    last_birth = max(births)

    points: dict[int, int] = {}
    sets = UnionFind()
    birth_level: list[int] = []  # per root: the least level of its component
    frontier: dict[int, int] = {}

    comp_count = 0
    levels: list[HPlusLevel] = []
    level = min(seeds)
    while True:
        limits = table.limits(q0, level)
        if min(limits) < 0:
            raise InternalInvariantViolation("a swept level lies below every weight")
        if isqrt(max(limits)) + reach >= bias:
            raise EnumerationBudgetExceeded(
                f"sublevel sweep outgrew its {width}-bit point fields at level {level}"
            )
        # |k_v| <= isqrt(limit_v), read on the field u = k_v + bias
        bounds = [(bias - r, bias + r) for r in map(isqrt, limits)]
        queue = deque(
            (sum((e + bias) << s for e, s in zip(box.evals(a), shifts)), level)
            for a in seeds.pop(level, ())
        )
        for p in [p for p, w in frontier.items() if w <= level]:
            queue.append((p, frontier.pop(p)))
        added: list[int] = []
        while queue:
            p, w = queue.popleft()
            if p in points:
                continue
            fields = unpack(p.to_bytes(nbytes, "little"))
            if any(not lo <= u <= hi for u, (lo, hi) in zip(fields, bounds)):
                raise InternalInvariantViolation(
                    "a sublevel point broke the exact weight bound"
                )
            if len(points) >= point_cap:
                raise EnumerationBudgetExceeded(
                    f"sublevel sweep exceeded {point_cap} points"
                )
            node = sets.add()
            points[p] = node
            birth_level.append(level)
            comp_count += 1
            added.append(node)
            for u, (column, down, up) in zip(fields, steps):
                for q, wq in ((p + column, w - (u + down) // 2), (p - column, w + (u + up) // 2)):
                    other = points.get(q)
                    if other is not None:
                        gone = sets.union(node, other)
                        if gone is not None:
                            comp_count -= 1
                            root = sets.find(gone)
                            birth_level[root] = min(birth_level[root], birth_level[gone])
                    elif q not in frontier:
                        if wq <= level:
                            queue.append((q, wq))
                        else:
                            frontier[q] = wq
        swept_births = len(
            {r for r in (sets.find(node) for node in added) if birth_level[r] == level}
        )
        if swept_births != births.get(level, 0):
            raise InternalInvariantViolation(
                f"flood found {swept_births} births at level {level}, "
                f"plateau count says {births.get(level, 0)}"
            )
        levels.append(HPlusLevel(level=level, rank=comp_count, births=swept_births))
        if level >= last_birth and comp_count == 1:
            return levels
        level += 1


def compute_hplus(
    forest: PlumbingForest,
    orbit: SpinCOrbit | CharVector,
    *,
    point_cap: int = DEFAULT_POINT_CAP,
    box_cap: int = DEFAULT_BOX_CAP,
) -> GradedHPlus:
    """Component counts, births per level and the kernel-of-U rank.

    ``orbit`` may be a SpinCOrbit of the given forest or a bare
    characteristic vector in the forest's own convention.  Orbits with
    kernel rank one get their level table written down directly (a single
    birth forces every level to be connected); others pay for a flood sweep
    up to the certified stabilization level.  The forest's box is built
    here; :func:`ker_u_cross_check` reuses the quotient engine's instead.
    """
    if not isinstance(orbit, SpinCOrbit):
        orbit = SpinCOrbit(representative=orbit, index=-1)
    table = _GradedOrbitTable.of(forest, box_cap)
    key, q0 = table.key_and_q(orbit.representative)
    return table.hplus(orbit, key, q0, point_cap)


@dataclass(frozen=True)
class CrossCheckRow:
    orbit: SpinCOrbit
    homology_dim: int
    graded: GradedHPlus

    @property
    def ker_u_rank(self) -> int:
        return self.graded.ker_u_rank

    @property
    def matches(self) -> bool:
        return self.homology_dim == self.ker_u_rank


@dataclass(frozen=True)
class CrossCheckReport:
    ok: bool
    rows: tuple[CrossCheckRow, ...]


def ker_u_cross_check(
    forest: PlumbingForest,
    *,
    point_cap: int = DEFAULT_POINT_CAP,
    box_cap: int = DEFAULT_BOX_CAP,
) -> CrossCheckReport:
    """Compare per-orbit quotient dimensions against kernel-of-U ranks.

    Both counts rest on one box and one graph: the births' faces are the
    reflection pairs read from their other ends, both engines reach the
    same alive set, and :meth:`~plumblat.charlattice.BoxIndex.square_free`
    thins both pair families alike (what the births keep is the negation
    of what the quotient keeps).  What is independent is the code that
    builds each count and the flood, which re-derives from sublevel sets
    the births of every orbit with more than one.  Each row carries its
    orbit's level table; ``point_cap`` bounds the sweeps of orbits with more
    than one birth.
    """
    homology = compute_homology(forest, box_cap=box_cap)
    table = _GradedOrbitTable(homology.box)
    box = table.box
    rows = []
    # each orbit enters by its least box index, which gives its
    # representative, its key and q(k0) from the tables
    for index, (key, least) in enumerate(box.orbits().items()):
        orbit = SpinCOrbit(representative=CharVector(box.evals(least)), index=index)
        graded = table.hplus(orbit, key, table.q(least), point_cap)
        dim = len(homology.orbit_classes[key])
        rows.append(CrossCheckRow(orbit=orbit, homology_dim=dim, graded=graded))
    if homology.total_dim != sum(row.homology_dim for row in rows):
        raise InternalInvariantViolation("per-orbit dimensions do not add up")
    return CrossCheckReport(ok=all(r.matches for r in rows), rows=tuple(rows))
