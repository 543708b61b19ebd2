"""Shared graph builders and seeded random generators."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import settings

from plumblat import EdgeSign, PlumbingForest, intersection_form, validate_forest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Every @given test replays the same examples on each run: the seed is derived
# from the test itself, and no example database carries failures between runs.
# Example counts stay as each test sets them.
settings.register_profile("replay", derandomize=True, database=None)
settings.load_profile("replay")


def lens(p: int) -> PlumbingForest:
    return validate_forest([("v", -p)])


def e8() -> PlumbingForest:
    return validate_forest(
        [(f"v{i}", -2) for i in range(1, 9)],
        [(f"v{i}", f"v{i + 1}") for i in range(1, 7)] + [("v5", "v8")],
    )


def elliptic_a() -> PlumbingForest:
    return validate_forest(
        [("a", -2), ("b", -2), ("c", -2), ("d", -2), ("e", -2), ("f", -3)],
        [("a", "c"), ("a", "d"), ("a", "b"), ("b", "e"), ("b", "f")],
    )


def elliptic_b() -> PlumbingForest:
    return validate_forest(
        [("a", -2), ("b", -2), ("c", -3), ("d", -2), ("e", -2), ("f", -3)],
        [("a", "c"), ("a", "d"), ("a", "b"), ("b", "e"), ("b", "f")],
    )


def random_forest(
    rng: random.Random,
    max_vertices: int = 6,
    lo: int = -5,
    hi: int = -1,
    edge_probability: float = 0.7,
    require_negdef: bool = True,
    edge_sign: EdgeSign = EdgeSign.MINUS_ONE,
) -> PlumbingForest:
    """Random plumbing forest, resampled until negative definite."""
    while True:
        n = rng.randint(1, max_vertices)
        vertices = [(f"v{i}", rng.randint(lo, hi)) for i in range(n)]
        edges = []
        for i in range(1, n):
            if rng.random() < edge_probability:
                edges.append((f"v{rng.randrange(i)}", f"v{i}"))
        forest = validate_forest(vertices, edges, edge_sign)
        if not require_negdef or intersection_form(forest).is_negative_definite:
            return forest


def random_zero_bad_forest(rng: random.Random, max_vertices: int = 6) -> PlumbingForest:
    """Random forest with no bad vertices: framings forced to -m(v) >= d(v)."""
    n = rng.randint(1, max_vertices)
    edges = []
    degree = [0] * n
    for i in range(1, n):
        if rng.random() < 0.7:
            j = rng.randrange(i)
            edges.append((f"v{j}", f"v{i}"))
            degree[j] += 1
            degree[i] += 1
    vertices = [
        (f"v{i}", -max(degree[i], 1) - rng.randint(0, 3)) for i in range(n)
    ]
    return validate_forest(vertices, edges)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
