"""Reference box engine: the tuple-and-dict quotient, kept as a test oracle.

Every box vector is a tuple, found through a dict; each extremal reflection
is built as a target tuple in O(n); escapes and sign conflicts are unions
with one global zero node; orbit keys are taken for every box vector.  The
production engine in :mod:`plumblat.homology` must agree with it exactly;
:func:`class_members` lists its classes member by member for the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from oracle_charlattice import enumerate_box
from plumblat import PlumbingForest, class_of, intersection_form
from plumblat.charlattice import OrbitIndexer, box_ranges
from plumblat.homology import HomologyResult


class SignedUnionFind:
    """Union-find whose parent pointers carry a sign in {+1, -1}."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.sign = [1] * size
        self.rank = [0] * size

    def find(self, a: int) -> tuple[int, int]:
        """Root of a and the sign s with val(a) = s * val(root)."""
        parent, sign = self.parent, self.sign
        path = []
        while parent[a] != a:
            path.append(a)
            a = parent[a]
        s = 1
        for node in reversed(path):
            s *= sign[node]
            parent[node] = a
            sign[node] = s
        return a, s

    def union(self, a: int, b: int, rel: int) -> bool:
        """Impose val(a) = rel * val(b); False reports a sign conflict."""
        ra, sa = self.find(a)
        rb, sb = self.find(b)
        if ra == rb:
            return sa == rel * sb
        s = sa * rel * sb
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.sign[rb] = s
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


@dataclass(frozen=True)
class ReferenceHomology:
    """Classes as (representative, ((member, sign), ...)) in representative
    order; per orbit (representative, dim, class representatives); and the
    class index (None for zero) and sign of every box vector."""

    classes: tuple
    per_orbit: tuple
    lookup: dict


def reference_homology(forest: PlumbingForest, *, signed: bool = True) -> ReferenceHomology:
    form = intersection_form(forest)
    n = len(forest)
    framings = forest.framings
    box = list(product(*box_ranges(form)))
    index = {k: i for i, k in enumerate(box)}
    zero_node = len(box)
    uf = SignedUnionFind(len(box) + 1)

    def unite(a: int, b: int, rel: int) -> None:
        if not uf.union(a, b, rel):
            uf.union(a, zero_node, 1) or uf.union(a, zero_node, -1)

    for idx, k in enumerate(box):
        for i in range(n):
            m = framings[i]
            if k[i] == m:
                target = tuple(k[j] - 2 * form.matrix[i][j] for j in range(n))
            elif k[i] == -m:
                target = tuple(k[j] + 2 * form.matrix[i][j] for j in range(n))
            else:
                continue
            tidx = index.get(target)
            if tidx is None:
                unite(idx, zero_node, 1)
            else:
                unite(idx, tidx, -1 if (signed and m % 2) else 1)

    zero_root, _ = uf.find(zero_node)
    groups: dict[int, list[int]] = {}
    lookup = {}
    for idx in range(len(box)):
        root, _ = uf.find(idx)
        if root == zero_root:
            lookup[box[idx]] = (None, 1)
        else:
            groups.setdefault(root, []).append(idx)
    classes = []
    for cls_id, idxs in enumerate(sorted(groups.values(), key=lambda g: min(box[i] for i in g))):
        idxs = sorted(idxs, key=lambda i: box[i])
        _, rep_sign = uf.find(idxs[0])
        members = []
        for i in idxs:
            rel = uf.find(i)[1] * rep_sign
            members.append((box[i], rel))
            lookup[box[i]] = (cls_id, rel)
        classes.append((box[idxs[0]], tuple(members)))

    indexer = OrbitIndexer(form)
    orbit_rep: dict[tuple[int, ...], tuple[int, ...]] = {}
    for k in box:
        orbit_rep.setdefault(indexer.key(k), k)  # box is in lex order
    class_reps: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for rep, _ in classes:
        class_reps.setdefault(indexer.key(rep), []).append(rep)
    per_orbit = tuple(
        (rep, len(class_reps.get(key, ())), tuple(class_reps.get(key, ())))
        for key, rep in sorted(orbit_rep.items(), key=lambda kv: kv[1])
    )
    return ReferenceHomology(classes=tuple(classes), per_orbit=per_orbit, lookup=lookup)


def class_members(result: HomologyResult) -> list[tuple]:
    """Each nonzero class of ``result`` as (representative, ((member, sign),
    ...)), members in lex order, as :class:`ReferenceHomology` lists them:
    read off :func:`class_of` on every box vector."""
    members: list[list] = [[] for _ in result.classes]
    for k in enumerate_box(result.form, result.box.size):
        ref = class_of(k, result)
        if not ref.is_zero:
            members[ref.index].append((k.evals, ref.sign))
    return [
        (cls.representative.evals, tuple(found))
        for cls, found in zip(result.classes, members)
    ]
