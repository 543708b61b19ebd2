"""Graded lattice cohomology of an orbit, and the kernel-of-U cross-oracle.

For a fixed characteristic vector k0, the weight w(x) = -((x,x) + <k0,x>)/2
(+1 edge convention) filters the lattice by sublevel sets S_n.  Only zeroth
cohomology is tracked: rank H^0(S_n) is the number of connected components,
where two lattice points are adjacent when they differ by one basis step and
both carry weight <= n.  U acts by restricting a component function to the
previous level, so rank(ker U) counts the component births: components of
S_n disjoint from S_{n-1}.

Births are computed without materializing any sublevel set.  A component of
S_n disjoint from S_{n-1} consists of points of weight exactly n, each of
which is a local minimum of w (its in-component neighbors share its weight
and everything else is heavier), and conversely a connected plateau of
weight-n local minima founds a new component unless some member has a
strictly lighter neighbor, or a same-weight neighbor that is not itself a
local minimum (such a neighbor has a lighter neighbor of its own, linking
the plateau to the previous level either way).  The local minima are exactly
the orbit's box vectors under x <-> k = k0 + 2x*, hence finite and
enumerated up front.  Expanding the square with k_v = k0_v + 2(x, e_v) gives
the step identity w(x + s e_v) - w(x) = -(s k_v + m_v)/2, s = +-1: on a box
vector it is >= 0 and zero exactly on the face s k_v = -m_v, so births scan
only face directions, at most one per vertex.

Births are read off box digits, with no lattice coordinates: the face
x + e_v is tied exactly when the digit d_v is at its top, and then sits a
fixed index offset away, in the box iff no neighbour digit is at its top;
x - e_v is tied exactly when d_v = 0, in the box iff no neighbour digit is
0.  A plateau's weight is (k0^2 - k^2)/8 with k^2 = k A^{-1} k, taken once
per undrained plateau.  Coordinates are solved only for orbits with more
than one birth, to seed their flood.

Component counts for ranks do need sublevel sets, and come from a certified
breadth-first flood out of the local minima (every component of S_n contains
a point of minimal weight, which is a local minimum, so the flood misses
nothing).  Two facts keep the sweep short and certify the stopping level:

* every component of every S_n contains some newborn core, so
  rank H^0(S_n) <= total births; in particular a kernel rank of one forces
  every level to be connected and no sweep is needed at all;
* past the last birth level, a connected complex stays connected: any new
  point drains along a strictly descending path to a local minimum, whose
  plateau -- being birthless -- links to strictly lighter points and hence,
  inductively, to the connected core.

Floods weigh neighbors by the same identity, from one k per point.  An exact
ellipsoid bound derived from the rational LDL eigenvalue bound checks every
flooded point, and a point cap guards runtime.

Every entry point reads its orbits from one :class:`_GradedOrbitTable` per
forest, which converts the forest and scans the box once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .charlattice import (
    DEFAULT_BOX_CAP,
    BoxIndex,
    CharVector,
    OrbitIndexer,
    SpinCOrbit,
    box_orbits,
    weight_radius_sq_bound,
)
from .errors import (
    EnumerationBudgetExceeded,
    InternalInvariantViolation,
    NotNegativeDefinite,
    ParityViolation,
)
from .homology import compute_homology
from .moves import convert_convention
from .plumbing import (
    EdgeSign,
    IntersectionForm,
    PlumbingForest,
    UnionFind,
    intersection_form,
)

DEFAULT_POINT_CAP = 10**7

Point = tuple[int, ...]


@dataclass(frozen=True)
class HPlusLevel:
    level: int
    rank: int
    births: int


@dataclass(frozen=True)
class SublevelComplex:
    """A single sublevel set: its lattice points and component partition.

    Only vertices and edges of the cubical complex matter for component
    counts (a higher cube never joins what its edges have not), so points
    plus unit-step adjacency carry the whole structure.
    """

    level: int
    points: frozenset[Point]
    components: tuple[tuple[Point, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class GradedHPlus:
    """Graded component counts for one orbit.

    ``levels`` runs over consecutive weights from the least local-minimum
    weight through ``stabilized_at`` (plus any requested extra levels); from
    ``stabilized_at`` on, the complex stays connected and nothing is born.
    ``ker_u_rank`` is the total number of births.
    """

    orbit: SpinCOrbit
    levels: tuple[HPlusLevel, ...]
    ker_u_rank: int
    stabilized_at: int


class _OrbitGrading:
    """Weights and local minima of one orbit in the +1 convention."""

    def __init__(self, plus: PlumbingForest, form: IntersectionForm, k0: CharVector):
        self.form = form
        self.k0 = k0
        self._framings = plus.framings
        self._edges = plus.edges
        self._k0e = k0.evals
        # local minima of w with their weights, one per orbit box vector
        self.minima: dict[Point, int] = {}

    def weight(self, x: Point) -> int:
        s = sum(xi * (m * xi + e) for xi, m, e in zip(x, self._framings, self._k0e))
        s += 2 * sum(x[a] * x[b] for a, b in self._edges)
        if s % 2:
            raise ParityViolation("orbit representative is not characteristic")
        return -s // 2

    def plateaus(self) -> dict[int, list[Point]]:
        """The local minima grouped by weight."""
        out: dict[int, list[Point]] = {}
        for x, w in self.minima.items():
            out.setdefault(w, []).append(x)
        return out

    def char(self, x: Point) -> list[int]:
        """The evaluations of k = k0 + 2x*, in O(n + E)."""
        k = [e + 2 * m * xi for e, m, xi in zip(self._k0e, self._framings, x)]
        for a, b in self._edges:
            k[a] += 2 * x[b]
            k[b] += 2 * x[a]
        return k

    def steps(self, x: Point, w: int):
        """The 2n unit neighbors of x (weight w) weighed by the step identity."""
        k = self.char(x)
        for v, m in enumerate(self._framings):
            head, xv, tail = x[:v], x[v], x[v + 1 :]
            yield head + (xv + 1,) + tail, w - (k[v] + m) // 2
            yield head + (xv - 1,) + tail, w + (k[v] - m) // 2


class _GradedOrbitTable:
    """The graded engine's per-forest setup, built once from (forest, box_cap).

    Holds the forest in the +1 convention with the bipartition that moves
    representatives there, its intersection form, one orbit indexer, one
    scan of the box into orbits, and the prefix and suffix tables that
    :meth:`births` reads box faces and orbit keys from.
    """

    def __init__(self, forest: PlumbingForest, box_cap: int):
        if forest.edge_sign is EdgeSign.PLUS_ONE:
            self.plus, self.negated = forest, (False,) * len(forest)
        else:
            conv = convert_convention(forest)
            self.plus, self.negated = conv.forest, conv.negated
        self.form = intersection_form(self.plus)
        if not self.form.is_negative_definite:
            raise NotNegativeDefinite("graded engine needs a negative-definite forest")
        self.indexer = OrbitIndexer(self.form)
        self.box = BoxIndex(self.form, box_cap)
        self.orbits = box_orbits(self.indexer, self.box)

        # the face x + e_v of a vector with d_v at its top sets d_v to 0 and
        # raises each neighbour digit by one: index offset up_v
        framings, strides = self.box.framings, self.box.strides
        neighbours = [0] * len(framings)
        up = [m * stride for m, stride in zip(framings, strides)]
        for a, b in self.plus.edges:
            neighbours[a] |= 1 << b
            neighbours[b] |= 1 << a
            up[a] += strides[b]
            up[b] += strides[a]
        low, heads, tails = self.box.halves()

        def half(table, offset):
            """Per half-vector: its part of the orbit key adj(A) k mod 2 det,
            masks of its top and zero digits and of their neighbours, and
            (neighbours, up_v) for each top digit v."""
            out = []
            for evals in table:
                key = self.indexer.key_part(evals, offset)
                top = zero = top_reach = zero_reach = 0
                ups = []
                for v, e in enumerate(evals, offset):
                    if e == -framings[v]:
                        top |= 1 << v
                        top_reach |= neighbours[v]
                        ups.append((neighbours[v], up[v]))
                    elif e == framings[v]:
                        zero |= 1 << v
                        zero_reach |= neighbours[v]
                out.append((key, top, zero, top_reach, zero_reach, ups))
            return out

        self._low, self._heads = low, half(heads, 0)
        self._tails = half(tails, len(heads[0]))

    def to_plus(self, rep: CharVector) -> CharVector:
        """A vector of the forest's own convention, moved to the +1 one."""
        return CharVector(tuple(-e if neg else e for e, neg in zip(rep.evals, self.negated)))

    def grading(self, rep: CharVector) -> _OrbitGrading:
        """The orbit of ``rep``, a vector in the forest's own convention."""
        return self.plus_grading(self.to_plus(rep))

    def plus_grading(self, k0: CharVector) -> _OrbitGrading:
        """The orbit of ``k0``, a vector in the +1 convention, in coordinates.

        Walks the orbit's sorted box indices keeping num = adj(A)(k - k0): a
        digit d_v moving changes k_v by t and adds t adj(A)[v] (adj(A) is
        symmetric), and the minimum is x = num / (2 det), checked exact."""
        grading = _OrbitGrading(self.plus, self.form, k0)
        adj, box, denom = self.indexer.adjugate, self.box, 2 * self.indexer.determinant
        shift = [m - e for m, e in zip(box.framings, k0.evals)]  # k - k0 at index 0
        num = [sum(a * d for a, d in zip(row, shift)) for row in adj]
        prev = 0
        for i in self.orbits.get(self.indexer.key(k0), ()):
            for v in reversed(range(len(num))):
                hi, lo = i // box.strides[v], prev // box.strides[v]
                if hi == lo:
                    break
                t = 2 * (hi % box.radices[v] - lo % box.radices[v])
                if t:
                    num = [a + t * c for a, c in zip(num, adj[v])]
            prev = i
            qr = [divmod(a, denom) for a in num]
            if any(r for _, r in qr):
                raise InternalInvariantViolation("a box vector left its orbit")
            x = tuple(q for q, _ in qr)
            grading.minima[x] = grading.weight(x)
        if not grading.minima:
            raise InternalInvariantViolation("an orbit lost all its box vectors")
        return grading

    def births(self, k0: CharVector) -> dict[int, int]:
        """Births per level of the orbit of ``k0`` (+1 convention), in
        increasing level order, read off the box digits of its members.

        A member with d_v at its top ties its face x + e_v, which sits at
        index a + up_v and is in the box iff no neighbour digit is at its
        top; a member with d_v = 0 ties x - e_v, the same pair seen from its
        other end, in the box iff no neighbour digit is 0.  In-box faces
        unite plateaus; a member with an out-of-box face drains its plateau.
        Each undrained plateau is a birth at its weight
        w = (q(k0) - q(k)) / (8 det), q(k) = k^T adj(A) k.
        """
        key0, mod = self.indexer.key(k0), self.indexer.modulus
        idxs = self.orbits.get(key0, ())
        if not idxs:
            raise InternalInvariantViolation("an orbit lost all its box vectors")
        low, heads, tails = self._low, self._heads, self._tails
        # orbit membership: the suffix key must complete the prefix key to key0
        need = {
            high: tuple([(a - b) % mod for a, b in zip(key0, heads[high][0])])
            for high in {a // low for a in idxs}
        }
        position = {a: i for i, a in enumerate(idxs)}
        sets = UnionFind(len(idxs))
        drained = []
        for i, a in enumerate(idxs):
            high, rest = divmod(a, low)
            _, htop, hzero, hreach, hzreach, hups = heads[high]
            tkey, ttop, tzero, treach, tzreach, tups = tails[rest]
            if tkey != need[high]:
                raise InternalInvariantViolation("a box vector left its orbit")
            top, zero = htop | ttop, hzero | tzero
            if top & (hreach | treach) or zero & (hzreach | tzreach):
                drained.append(i)  # a tie off the box is no minimum: it drains
            for nbrs, up in hups + tups:
                if not top & nbrs:
                    j = position.get(a + up)
                    if j is None:
                        raise InternalInvariantViolation("a box face left its orbit")
                    sets.union(i, j)
        gone = {sets.find(i) for i in drained}
        adj, denom = self.indexer.adjugate, 8 * self.indexer.determinant
        q0 = _quadratic(adj, k0.evals)
        births: dict[int, int] = {}
        for root, parent in enumerate(sets.parent):
            if parent == root and root not in gone:
                k = self.box.evals(idxs[root])
                level, rem = divmod(q0 - _quadratic(adj, k), denom)
                if rem:
                    raise InternalInvariantViolation("a plateau weight is not integral")
                births[level] = births.get(level, 0) + 1
        return dict(sorted(births.items()))

    def hplus(
        self, orbit: SpinCOrbit, point_cap: int, extra_levels: int
    ) -> GradedHPlus:
        """Level table of one orbit, counting its births once.

        A single birth is the global minimum plateau and needs no
        coordinates; more births seed a flood from the orbit's minima."""
        k0 = self.to_plus(orbit.representative)
        births = self.births(k0)
        ker_u_rank = sum(births.values())
        if ker_u_rank == 1:
            (stabilized_at,) = births
            levels = [HPlusLevel(level=stabilized_at, rank=1, births=1)]
            for j in range(1, extra_levels + 1):
                levels.append(HPlusLevel(level=stabilized_at + j, rank=1, births=0))
        else:
            levels, stabilized_at = _sweep_levels(
                self.plus_grading(k0), births, point_cap, extra_levels
            )
        return GradedHPlus(
            orbit=orbit,
            levels=tuple(levels),
            ker_u_rank=ker_u_rank,
            stabilized_at=stabilized_at,
        )


def _quadratic(adj: list[list[int]], k) -> int:
    """k^T adj(A) k."""
    return sum(e * sum(a * f for a, f in zip(row, k)) for e, row in zip(k, adj))


def _sweep_levels(
    grading: _OrbitGrading,
    births: dict[int, int],
    point_cap: int,
    extra_levels: int,
) -> tuple[list[HPlusLevel], int]:
    """Exact per-level component counts by certified flood, with births
    re-derived independently and compared against the plateau counts."""
    minima_by_weight = grading.plateaus()
    last_birth = max(births)

    points: dict[Point, int] = {}
    sets = UnionFind()
    birth_level: list[int] = []  # per root: the least level of its component
    frontier: dict[Point, int] = {}

    comp_count = 0
    levels: list[HPlusLevel] = []
    stabilized_at: int | None = None
    remaining_extra = extra_levels
    level = min(minima_by_weight)
    while True:
        radius_sq = weight_radius_sq_bound(grading.form, grading.k0, level)
        queue = deque((x, level) for x in minima_by_weight.pop(level, ()))
        for pt in [pt for pt, w in frontier.items() if w <= level]:
            queue.append((pt, frontier.pop(pt)))
        added: list[int] = []
        while queue:
            pt, w = queue.popleft()
            if pt in points:
                continue
            if sum(c * c for c in pt) > radius_sq:
                raise InternalInvariantViolation(
                    "a sublevel point escaped the certified ellipsoid bound"
                )
            if len(points) >= point_cap:
                raise EnumerationBudgetExceeded(
                    f"sublevel sweep exceeded {point_cap} points"
                )
            node = sets.add()
            points[pt] = node
            birth_level.append(level)
            comp_count += 1
            added.append(node)
            for q, wq in grading.steps(pt, w):
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
        if stabilized_at is None:
            if level >= last_birth and comp_count == 1:
                stabilized_at = level
                if remaining_extra == 0:
                    break
        else:
            remaining_extra -= 1
            if remaining_extra <= 0:
                break
        level += 1
    return levels, stabilized_at


def compute_hplus(
    forest: PlumbingForest,
    orbit: SpinCOrbit | CharVector,
    *,
    point_cap: int = DEFAULT_POINT_CAP,
    box_cap: int = DEFAULT_BOX_CAP,
    extra_levels: int = 0,
) -> GradedHPlus:
    """Component counts, births per level and the kernel-of-U rank.

    ``orbit`` may be a SpinCOrbit of the given forest or a bare
    characteristic vector in the forest's own convention; conversion to the
    +1 pairing happens internally.  Orbits with kernel rank one get their
    level table written down directly (a single birth forces every level to
    be connected); others pay for a flood sweep up to the certified
    stabilization level.
    """
    if not isinstance(orbit, SpinCOrbit):
        orbit = SpinCOrbit(representative=orbit, index=-1)
    return _GradedOrbitTable(forest, box_cap).hplus(orbit, point_cap, extra_levels)


def sublevel_complex(
    forest: PlumbingForest,
    orbit: SpinCOrbit | CharVector,
    level: int,
    *,
    point_cap: int = DEFAULT_POINT_CAP,
    box_cap: int = DEFAULT_BOX_CAP,
) -> SublevelComplex:
    """Materialize one sublevel set by flooding from the local minima.

    Complete because every component of the set contains a local minimum;
    mostly useful for inspection and for testing the level tables.
    """
    rep = orbit.representative if isinstance(orbit, SpinCOrbit) else orbit
    grading = _GradedOrbitTable(forest, box_cap).grading(rep)
    radius_sq = weight_radius_sq_bound(grading.form, grading.k0, level)
    points: dict[Point, int] = {}
    sets = UnionFind()
    queue = deque((x, w) for x, w in grading.minima.items() if w <= level)
    while queue:
        pt, w = queue.popleft()
        if pt in points:
            continue
        if sum(c * c for c in pt) > radius_sq:
            raise InternalInvariantViolation(
                "a sublevel point escaped the certified ellipsoid bound"
            )
        if len(points) >= point_cap:
            raise EnumerationBudgetExceeded(
                f"sublevel enumeration exceeded {point_cap} points"
            )
        node = sets.add()
        points[pt] = node
        for q, wq in grading.steps(pt, w):
            other = points.get(q)
            if other is not None:
                sets.union(other, node)
            elif wq <= level:
                queue.append((q, wq))
    groups: dict[int, list[Point]] = {}
    for pt, node in points.items():
        groups.setdefault(sets.find(node), []).append(pt)
    components = tuple(
        tuple(sorted(group)) for group in sorted(groups.values(), key=min)
    )
    return SublevelComplex(
        level=level, points=frozenset(points), components=components
    )


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

    The two engines share nothing past the box: one quotients characteristic
    vectors by signed reflections, the other counts component births of the
    weight filtration, so agreement is a genuine two-route check.  The box
    is grouped into orbits once, not once per orbit.  Each row carries its
    orbit's level table; ``point_cap`` bounds the sweeps of orbits with more
    than one birth.
    """
    homology = compute_homology(forest, box_cap=box_cap)
    table = _GradedOrbitTable(forest, box_cap)
    rows = tuple(
        CrossCheckRow(
            orbit=oh.orbit,
            homology_dim=oh.dim,
            graded=table.hplus(oh.orbit, point_cap, 0),
        )
        for oh in homology.per_orbit
    )
    return CrossCheckReport(ok=all(r.matches for r in rows), rows=rows)


def rational_via_hplus(
    forest: PlumbingForest, *, box_cap: int = DEFAULT_BOX_CAP
) -> bool:
    """Whether every orbit shows the single-tower shape.

    True iff each orbit has kernel rank one; since every component of every
    sublevel set contains a newborn core, a single birth already forces rank
    one at every level, which is the single-tower shape at the component
    level.  A cross-check against the direct definition-based rationality
    test, not the primary test; deliberately shares nothing with either the
    quotient engine or the chi ellipsoid (orbits come from the box scan).
    """
    table = _GradedOrbitTable(forest, box_cap)
    for idxs in table.orbits.values():
        if sum(table.births(CharVector(table.box.evals(idxs[0]))).values()) != 1:
            return False
    return True
