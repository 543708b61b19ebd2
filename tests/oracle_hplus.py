"""Reference graded engine: all-neighbour births and per-vector minima.

Each local minimum's lattice coordinates come from a full adjugate product
(:meth:`OrbitIndexer.lattice_coordinates` on its own box vector), births scan
all 2n unit neighbours of every minimum and weigh each one with the full
quadratic form, and the flood weighs every new neighbour the same way.  The
production engine in :mod:`plumblat.hplus` reads births off box digits
without coordinates, keeps one running numerator for the coordinates that
seed a flood and weighs flood steps by the step identity; it must agree
with this one exactly.
"""

from __future__ import annotations

from collections import deque

from plumblat import CharVector
from plumblat.charlattice import weight_radius_sq_bound
from plumblat.errors import EnumerationBudgetExceeded, InternalInvariantViolation
from plumblat.hplus import (
    GradedHPlus,
    HPlusLevel,
    Point,
    _GradedOrbitTable,
    _OrbitGrading,
)
from plumblat.plumbing import UnionFind


def unit_neighbors(x: Point):
    """The 2n lattice points one basis step away from x."""
    for i in range(len(x)):
        for step in (1, -1):
            yield x[:i] + (x[i] + step,) + x[i + 1 :]


def reference_grading(table: _GradedOrbitTable, rep: CharVector) -> _OrbitGrading:
    """The orbit of ``rep`` (forest's own convention), minima solved one by one."""
    k0 = CharVector(tuple(-e if neg else e for e, neg in zip(rep.evals, table.negated)))
    grading = _OrbitGrading(table.plus, table.form, k0)
    for i in table.orbits.get(table.indexer.key(k0), ()):
        x = table.indexer.lattice_coordinates(table.box.evals(i), k0.evals).coords
        grading.minima[x] = grading.weight(x)
    if not grading.minima:
        raise InternalInvariantViolation("an orbit lost all its box vectors")
    return grading


def reference_birth_counts(grading: _OrbitGrading) -> dict[int, int]:
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
    grading: _OrbitGrading,
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
