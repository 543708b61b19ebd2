"""Plumbing forests and their intersection forms.

A plumbing forest is an acyclic graph whose vertices carry integer framings.
It encodes a 4-manifold built from disk bundles over spheres; the symmetric
intersection form has the framings on the diagonal and, for each edge, an
off-diagonal entry equal to the forest's edge sign.  Both the ``-1`` and the
standard ``+1`` edge conventions are supported; the convention is part of the
data of the forest.

All arithmetic is exact.  The determinant and the definiteness come from
one leaf-first pass over the forest, the continued-fraction reduction of
Neumann's plumbing calculus (Trans. AMS 268, 1981): a leaf with nonzero
pivot d is split off by a congruence that adds -1/d to its neighbour's
framing, a leaf with zero pivot splits off with its neighbour as a block of
determinant -1 and one eigenvalue of each sign, and by Sylvester's law of
inertia the signs of the pivots certify the verdict.  The degenerate
direction of a zero-bad-vertex forest is located combinatorially: a
connected component with -m(v) = d(v) throughout is a plumbing description
of S^1 x S^2, and is the only way such a forest can fail to be negative
definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable

from .errors import (
    CycleDetected,
    DanglingEdge,
    DuplicateEdge,
    DuplicateVertexId,
    MistypedForestData,
    NotApplicable,
    SelfLoop,
    TooManyVertices,
    UnknownVertexId,
)

# Every forest holds at most this many vertices, so the dense n x n
# intersection matrix stays small whatever the input; the Seifert stars
# -2; 2/1 3/1 p/(p-1) fit up to p = 998.
MAX_VERTICES = 1000


class EdgeSign(Enum):
    """Pairing of adjacent vertices: the stored off-diagonal entry."""

    MINUS_ONE = -1
    PLUS_ONE = 1


class Definiteness(Enum):
    NEGATIVE_DEFINITE = "negative_definite"
    NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
    # Anything failing negative semidefiniteness is reported here, including
    # positive-definite forms; the calculators only care about the negative side.
    INDEFINITE = "indefinite"


class UnionFind:
    """Disjoint sets over the indices 0, 1, ..., with path halving.

    Shared by forest components, cycle checks and the graded engine's
    floods; the births inline their own union-find, and the quotient
    engine keeps its union-find of plain parents in a dict keyed by box
    index, with its signs read off a parity vector.
    """

    def __init__(self, size: int = 0):
        self.parent = list(range(size))

    def add(self) -> int:
        """A new singleton set; returns its index."""
        node = len(self.parent)
        self.parent.append(node)
        return node

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> int | None:
        """Join the sets of a and b under b's root.

        Returns the root that was absorbed, or None if a and b were already
        in one set.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        self.parent[ra] = rb
        return ra


@dataclass(frozen=True)
class PlumbingForest:
    """Immutable validated plumbing forest.

    ``ids`` and ``framings`` run in input order; ``edges`` holds index pairs
    (i, j) with i < j.  Construct through :func:`validate_forest`.
    """

    ids: tuple[str, ...]
    framings: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    edge_sign: EdgeSign = EdgeSign.MINUS_ONE

    def __len__(self) -> int:
        return len(self.ids)

    def index_of(self, vertex_id: str) -> int:
        try:
            return self.ids.index(vertex_id)
        except ValueError:
            raise UnknownVertexId(f"unknown vertex id {vertex_id!r}") from None

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, in the order of ``edges``."""
        near: list[list[int]] = [[] for _ in self.ids]
        for a, b in self.edges:
            near[a].append(b)
            near[b].append(a)
        return tuple(map(tuple, near))

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def degrees(self) -> list[int]:
        return [len(near) for near in self.adjacency]

    def neighbors(self, i: int) -> list[int]:
        return sorted(self.adjacency[i])

    def components(self) -> list[list[int]]:
        """Connected components as sorted index lists, sorted by first vertex."""
        sets = UnionFind(len(self.ids))
        for a, b in self.edges:
            sets.union(a, b)
        groups: dict[int, list[int]] = {}
        for i in range(len(self.ids)):
            groups.setdefault(sets.find(i), []).append(i)
        return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])

    def with_framing(self, i: int, framing: int) -> "PlumbingForest":
        framings = list(self.framings)
        framings[i] = framing
        return PlumbingForest(self.ids, tuple(framings), self.edges, self.edge_sign)

    def delete_vertex(self, i: int) -> "PlumbingForest":
        return self.restrict([j for j in range(len(self.ids)) if j != i])

    def restrict(self, indices: list[int]) -> "PlumbingForest":
        """The sub-forest on the ascending, distinct ``indices`` with the
        edges among them, in their order; positions keep their order, so
        each edge keeps i < j.  All the indices give the forest itself."""
        if len(indices) == len(self.ids):
            return self
        position = {v: p for p, v in enumerate(indices)}
        edges = tuple(
            (position[a], position[b]) for a, b in self.edges if a in position and b in position
        )
        ids = tuple(self.ids[v] for v in indices)
        framings = tuple(self.framings[v] for v in indices)
        return PlumbingForest(ids, framings, edges, self.edge_sign)

    def with_edge_sign(self, edge_sign: EdgeSign) -> "PlumbingForest":
        return PlumbingForest(self.ids, self.framings, self.edges, edge_sign)


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric integer matrix of a forest with its exact certificates."""

    matrix: tuple[tuple[int, ...], ...]
    determinant: int
    definiteness: Definiteness
    edge_sign: EdgeSign

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def is_negative_definite(self) -> bool:
        return self.definiteness is Definiteness.NEGATIVE_DEFINITE


@dataclass(frozen=True)
class CanonicalClass:
    """The characteristic functional with value -m(v) - 2 on every vertex."""

    evals: tuple[int, ...]


@dataclass(frozen=True)
class SemidefiniteVerdict:
    kind: str  # "negative_definite" | "s1_x_s2_component"
    component: tuple[str, ...] = field(default=())


def validate_forest(
    vertices: Iterable[tuple[str, int]],
    edges: Iterable[tuple[str, str]] = (),
    edge_sign: EdgeSign = EdgeSign.MINUS_ONE,
) -> PlumbingForest:
    """Validate raw vertex/edge data into a :class:`PlumbingForest`.

    Rejects ids and edge endpoints that are not strings, framings that are
    not ints (nothing is coerced: -2.7, True and "-3" are errors), duplicate
    vertex ids, self-loops, dangling or duplicate edges and cycles, and
    raises :class:`TooManyVertices` past :data:`MAX_VERTICES` vertices.
    Duplicate edges are an error rather than being deduplicated: silently
    merging them would hide a likely mistake in the input.  Every vertex is
    checked before any edge, and each :class:`ForestValidationError` names
    the failing entry by its position (``exc.entry``).
    """
    ids: list[str] = []
    framings: list[int] = []
    index: dict[str, int] = {}
    for pos, (vid, m) in enumerate(vertices):
        entry = ("vertex", pos)
        if pos == MAX_VERTICES:
            raise TooManyVertices(f"a forest holds at most {MAX_VERTICES} vertices")
        if not isinstance(vid, str):
            raise MistypedForestData(f"vertex id {vid!r} is not a string", entry)
        if type(m) is not int:  # bool is an int subclass, and not a framing
            raise MistypedForestData(
                f"framing {m!r} of vertex {vid!r} is not an integer", entry
            )
        if vid in index:
            raise DuplicateVertexId(f"vertex id {vid!r} appears twice", entry)
        index[vid] = len(ids)
        ids.append(vid)
        framings.append(m)

    sets = UnionFind(len(ids))
    seen: set[tuple[int, int]] = set()
    out_edges: list[tuple[int, int]] = []
    for pos, (a, b) in enumerate(edges):
        entry = ("edge", pos)
        if not (isinstance(a, str) and isinstance(b, str)):
            raise MistypedForestData(f"edge ({a!r}, {b!r}) must name vertex ids", entry)
        if a == b:
            raise SelfLoop(f"edge ({a!r}, {b!r}) is a self-loop", entry)
        if a not in index or b not in index:
            raise DanglingEdge(f"edge ({a!r}, {b!r}) references a missing vertex", entry)
        i, j = sorted((index[a], index[b]))
        if (i, j) in seen:
            raise DuplicateEdge(f"edge ({a!r}, {b!r}) appears twice", entry)
        seen.add((i, j))
        if sets.union(i, j) is None:
            raise CycleDetected(f"edge ({a!r}, {b!r}) closes a cycle", entry)
        out_edges.append((i, j))
    return PlumbingForest(tuple(ids), tuple(framings), tuple(out_edges), edge_sign)


def definiteness(forest: PlumbingForest) -> tuple[int, Definiteness]:
    """Determinant and definiteness from one leaf-first pass over the edges,
    with no matrix built; both are the same in the two edge conventions.

    A leaf v with pivot d != 0 leaves with d; its neighbour's pivot gains
    -e^2/d = -1/d.  A leaf with pivot 0 leaves with its neighbour u as the
    block [[0, e], [e, d_u]]: determinant -e^2 = -1, one eigenvalue of each
    sign, and row v clears u's other edges without changing a pivot.  So the
    form is negative definite iff every pivot is negative, semidefinite iff
    no pivot or pair is positive; e^2 = 1 in both edge conventions.
    """
    adjacent = [set(near) for near in forest.adjacency]
    # the pivot of v is num[v] / den[v], with den[v] > 0
    num, den = list(forest.framings), [1] * len(forest.ids)
    det_num, det_den, signs, done = 1, 1, set(), [False] * len(num)
    leaves = [v for v, near in enumerate(adjacent) if len(near) <= 1]
    while leaves:
        v = leaves.pop()
        if done[v]:
            continue
        done[v], d, released = True, num[v], list(adjacent[v])
        if released and not d:
            (u,) = released
            done[u], det_num = True, -det_num
            signs.add(1)
            released = list(adjacent[u] - {v})
            for w in released:
                adjacent[w].remove(u)
        else:
            sign = (d > 0) - (d < 0)
            signs.add(sign)
            det_num, det_den = det_num * d, det_den * den[v]
            for u in released:
                adjacent[u].remove(v)
                num[u], den[u] = sign * (num[u] * d - den[u] * den[v]), den[u] * abs(d)
        leaves.extend(w for w in released if len(adjacent[w]) <= 1)
    det = det_num // det_den
    if 1 in signs:
        return det, Definiteness.INDEFINITE
    if 0 in signs:
        return det, Definiteness.NEGATIVE_SEMIDEFINITE
    return det, Definiteness.NEGATIVE_DEFINITE


def intersection_form(forest: PlumbingForest) -> IntersectionForm:
    """Intersection matrix, exact determinant and definiteness certificate."""
    n = len(forest)
    rows = [[0] * n for _ in range(n)]
    for i, m in enumerate(forest.framings):
        rows[i][i] = m
    for a, b in forest.edges:
        rows[a][b] = rows[b][a] = forest.edge_sign.value
    det, kind = definiteness(forest)
    return IntersectionForm(tuple(map(tuple, rows)), det, kind, forest.edge_sign)


def bad_vertices(forest: PlumbingForest) -> list[str]:
    """Vertices whose framing is too shallow for their degree: -m(v) < d(v)."""
    degs = forest.degrees()
    return [
        forest.ids[i]
        for i in range(len(forest))
        if -forest.framings[i] < degs[i]
    ]


def canonical_class(forest: PlumbingForest) -> CanonicalClass:
    return CanonicalClass(tuple(-m - 2 for m in forest.framings))


def semidefinite_classify(forest: PlumbingForest) -> SemidefiniteVerdict:
    """Classify a zero-bad-vertex forest.

    Such a forest is automatically negative semidefinite; it is negative
    definite unless some connected component satisfies -m(v) = d(v) at every
    vertex, in which case that component describes S^1 x S^2 and is reported.
    Raises NotApplicable if the forest has bad vertices.
    """
    bad = bad_vertices(forest)
    if bad:
        raise NotApplicable(f"forest has bad vertices: {bad}")
    degs = forest.degrees()
    for comp in forest.components():
        if all(-forest.framings[i] == degs[i] for i in comp):
            return SemidefiniteVerdict(
                kind="s1_x_s2_component",
                component=tuple(forest.ids[i] for i in comp),
            )
    if definiteness(forest)[1] is not Definiteness.NEGATIVE_DEFINITE:
        # unreachable for valid inputs: a 0-bad-vertex forest without a
        # fully degenerate component is always negative definite
        return SemidefiniteVerdict(kind="indefinite")
    return SemidefiniteVerdict(kind="negative_definite")
