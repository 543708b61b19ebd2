"""Reference graded engine in lattice coordinates, and a one-level flood.

Each local minimum's lattice coordinates come from a full adjugate product
(:func:`oracle_charlattice.lattice_coordinates` on its own box vector),
births scan all 2n unit neighbours of every minimum and weigh each one with
the full quadratic form, and the flood weighs every new neighbour the same
way, checking each point against the ball of
:func:`oracle_charlattice.weight_radius_sq_bound`.  The production engine
in :mod:`plumblat.hplus` reads births off whole-box face bitsets, floods
characteristic vectors from every box vector of the orbit and weighs flood
steps by the step identity; it must agree with this one exactly.

:func:`sublevel_complex` materializes a single sublevel set in coordinates,
for inspection and for testing the level tables, and
:func:`rational_via_hplus` reads rationality off the birth counts alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import mul

from oracle_charlattice import lattice_coordinates, weight_radius_sq_bound
from plumblat import CharVector, IntersectionForm, PlumbingForest, SpinCOrbit
from plumblat.charlattice import DEFAULT_BOX_CAP
from plumblat.errors import (
    EnumerationBudgetExceeded,
    InternalInvariantViolation,
    ParityViolation,
)
from plumblat.hplus import (
    DEFAULT_POINT_CAP,
    GradedHPlus,
    HPlusLevel,
    _GradedOrbitTable,
)

Point = tuple[int, ...]  # lattice coordinates


class UnionFind:
    """Plain disjoint sets over 0, 1, ...: the reference engines share none
    of :class:`plumblat.plumbing.UnionFind`, so a fault there cannot hide."""

    def __init__(self, size: int = 0):
        self.parent = list(range(size))

    def add(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:  # point the path at the root
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> int | None:
        """Put a's root under b's; the absorbed root, or None if joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        self.parent[ra] = rb
        return ra


class OrbitGrading:
    """Weights and local minima of one orbit, in the form's own convention."""

    def __init__(self, form: IntersectionForm, k0: CharVector):
        self.form = form
        self.k0 = k0
        self._k0e = k0.evals
        # local minima of w with their weights, one per orbit box vector
        self.minima: dict[Point, int] = {}

    def weight(self, x: Point) -> int:
        s = sum(
            xi * (sum(map(mul, row, x)) + e)
            for xi, row, e in zip(x, self.form.matrix, self._k0e)
        )
        if s % 2:
            raise ParityViolation("orbit representative is not characteristic")
        return -s // 2


def unit_neighbors(x: Point):
    """The 2n lattice points one basis step away from x."""
    for i in range(len(x)):
        for step in (1, -1):
            yield x[:i] + (x[i] + step,) + x[i + 1 :]


def reference_grading(table: _GradedOrbitTable, rep: CharVector) -> OrbitGrading:
    """The orbit of ``rep`` (forest's own convention), minima solved one by one."""
    grading = OrbitGrading(table.form, rep)
    for i in table.box.members(table.indexer.key(rep)):
        x = lattice_coordinates(table.indexer, table.box.evals(i), rep).coords
        grading.minima[x] = grading.weight(x)
    if not grading.minima:
        raise InternalInvariantViolation("an orbit lost all its box vectors")
    return grading


def reference_birth_counts(grading: OrbitGrading) -> dict[int, int]:
    """Births per level, weighing all 2n neighbours of every minimum."""
    minima = grading.minima
    by_weight: dict[int, list[Point]] = {}
    for x, w in minima.items():
        by_weight.setdefault(w, []).append(x)
    births: dict[int, int] = {}
    for level, plateau in sorted(by_weight.items()):
        index = {p: i for i, p in enumerate(plateau)}
        sets = UnionFind(len(plateau))
        linked_below = [False] * len(plateau)
        for i, p in enumerate(plateau):
            for q in unit_neighbors(p):
                j = index.get(q)
                if j is not None:
                    sets.union(i, j)
                    continue
                wq = minima.get(q)
                if wq is None:
                    wq = grading.weight(q)
                if wq <= level:
                    linked_below[i] = True
        newborn = {}
        for i in range(len(plateau)):
            root = sets.find(i)
            newborn.setdefault(root, True)
            if linked_below[i]:
                newborn[root] = False
        count = sum(1 for alive in newborn.values() if alive)
        if count:
            births[level] = count
    return births


def reference_sweep_levels(
    grading: OrbitGrading,
    births: dict[int, int],
    point_cap: int,
    extra_levels: int,
) -> tuple[list[HPlusLevel], int]:
    """Per-level component counts by a flood that weighs every neighbour."""
    minima_by_weight: dict[int, list[Point]] = {}
    for x, w in grading.minima.items():
        minima_by_weight.setdefault(w, []).append(x)
    level = min(minima_by_weight)
    last_birth = max(births)
    points: dict[Point, int] = {}
    sets = UnionFind()
    birth_level: list[int] = []
    frontier: dict[Point, int] = {}
    comp_count = 0
    levels: list[HPlusLevel] = []
    stabilized_at = None
    remaining_extra = extra_levels
    while True:
        radius_sq = weight_radius_sq_bound(grading.form, grading.k0, level)
        queue = deque(minima_by_weight.pop(level, ()))
        for pt in [pt for pt, w in frontier.items() if w <= level]:
            del frontier[pt]
            queue.append(pt)
        added: list[int] = []
        while queue:
            pt = queue.popleft()
            if pt in points:
                continue
            if sum(c * c for c in pt) > radius_sq:
                raise InternalInvariantViolation("a sublevel point escaped the ellipsoid")
            if len(points) >= point_cap:
                raise EnumerationBudgetExceeded(f"reference sweep exceeded {point_cap}")
            node = sets.add()
            points[pt] = node
            birth_level.append(level)
            comp_count += 1
            added.append(node)
            for q in unit_neighbors(pt):
                other = points.get(q)
                if other is not None:
                    gone = sets.union(node, other)
                    if gone is not None:
                        comp_count -= 1
                        root = sets.find(gone)
                        birth_level[root] = min(birth_level[root], birth_level[gone])
                elif q not in frontier:
                    wq = grading.weight(q)
                    if wq <= level:
                        queue.append(q)
                    else:
                        frontier[q] = wq
        swept = len(
            {r for r in (sets.find(node) for node in added) if birth_level[r] == level}
        )
        if swept != births.get(level, 0):
            raise InternalInvariantViolation(f"reference flood: {swept} births at {level}")
        levels.append(HPlusLevel(level=level, rank=comp_count, births=swept))
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


def reference_hplus(
    table: _GradedOrbitTable, orbit, point_cap: int = 10**7, extra_levels: int = 0
) -> GradedHPlus:
    """The level table of one orbit; a single birth needs no sweep."""
    grading = reference_grading(table, orbit.representative)
    births = reference_birth_counts(grading)
    if sum(births.values()) == 1:
        (first,) = births
        levels = [HPlusLevel(level=first + j, rank=1, births=int(j == 0))
                  for j in range(extra_levels + 1)]
        stabilized_at = first
    else:
        levels, stabilized_at = reference_sweep_levels(
            grading, births, point_cap, extra_levels
        )
    return GradedHPlus(
        orbit=orbit,
        levels=tuple(levels),
        ker_u_rank=sum(births.values()),
        stabilized_at=stabilized_at,
    )


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
    every flooded point is checked against the radius bound.
    """
    rep = orbit.representative if isinstance(orbit, SpinCOrbit) else orbit
    grading = reference_grading(_GradedOrbitTable.of(forest, box_cap), rep)
    radius_sq = weight_radius_sq_bound(grading.form, grading.k0, level)
    points: dict[Point, int] = {}
    sets = UnionFind()
    queue = deque(x for x, w in grading.minima.items() if w <= level)
    while queue:
        pt = queue.popleft()
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
        for q in unit_neighbors(pt):
            other = points.get(q)
            if other is not None:
                sets.union(other, node)
            elif grading.weight(q) <= level:
                queue.append(q)
    groups: dict[int, list[Point]] = {}
    for pt, node in points.items():
        groups.setdefault(sets.find(node), []).append(pt)
    components = tuple(
        tuple(sorted(group)) for group in sorted(groups.values(), key=min)
    )
    return SublevelComplex(
        level=level, points=frozenset(points), components=components
    )


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
    table = _GradedOrbitTable.of(forest, box_cap)
    for key, least in table.box.orbits().items():
        if sum(table.births(key, table.q(least)).values()) != 1:
            return False
    return True
