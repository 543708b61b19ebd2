"""Seifert invariants over S^2 and their star-shaped plumbings.

Input data is an integer e0 together with coprime pairs (alpha_i, beta_i).
The convention, fixed here once and documented in the README, is:

* each beta_i is reduced mod alpha_i into [0, alpha_i) -- pairs with
  alpha_i = 1 vanish entirely -- and e0 itself is the central framing of the
  star, left untouched by the reduction;
* each leg expands alpha_i / beta_i' as the unique negative continued
  fraction [a_1, ..., a_k] with all a_j >= 2, giving framings -a_1, ...,
  -a_k outward from the center;
* the rational Euler number is e = e0 + sum beta_i'/alpha_i, and the first
  homology of the boundary has order |alpha_1 ... alpha_n * e|, which is
  cross-checked exactly against the determinant of the star.

The star is negative definite iff e < 0.  When e > 0 the orientation is
reversed (negate the Euler number; on normalized data: e0 -> -e0 - #legs,
beta' -> alpha - beta') and the conversion is flagged.  Base orbifold RP^2
has no plumbing pipeline here and is rejected up front: those fillings are
not expressible as a star over S^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dsl import parse_int
from .errors import (
    InternalInvariantViolation,
    InvalidFraction,
    NotNegativeDefiniteEitherOrientation,
    SeifertInputError,
    TooManyVertices,
)
from .plumbing import MAX_VERTICES, Definiteness, PlumbingForest, definiteness, validate_forest


@dataclass(frozen=True)
class SeifertData:
    e0: int
    legs: tuple[tuple[int, int], ...]

    def validate(self) -> None:
        for alpha, beta in self.legs:
            if alpha < 1:
                raise SeifertInputError(f"leg ({alpha},{beta}): alpha must be >= 1")
            if gcd(alpha, abs(beta)) != 1:
                raise SeifertInputError(f"leg ({alpha},{beta}) is not coprime")


def parse_sfs(text: str) -> SeifertData:
    """Parse the CLI form ``"e0; a1/b1 a2/b2 ..."``."""
    head, _, tail = text.partition(";")
    e0 = parse_int(head.strip())
    if e0 is None:
        raise SeifertInputError(f"bad central framing {head.strip()!r}")
    legs = []
    for token in tail.split():
        num, slash, den = token.partition("/")
        if not slash:
            raise SeifertInputError(f"leg {token!r} is not of the form a/b")
        alpha, beta = parse_int(num), parse_int(den)
        if alpha is None or beta is None:
            raise SeifertInputError(f"leg {token!r} is not a pair of integers")
        legs.append((alpha, beta))
    data = SeifertData(e0=e0, legs=tuple(legs))
    data.validate()
    return data


def cont_frac_expand(alpha: int, beta: int) -> list[int]:
    """Negative continued fraction of alpha/beta: all terms >= 2.

    Requires 0 < beta < alpha and coprimality; the expansion satisfies
    alpha/beta = a_1 - 1/(a_2 - 1/(...)) and is unique.  Each term is a
    vertex of the star, so more than MAX_VERTICES terms raise
    TooManyVertices before the list grows past them.
    """
    if not (0 < beta < alpha):
        raise InvalidFraction(f"need 0 < beta < alpha, got {alpha}/{beta}")
    if gcd(alpha, beta) != 1:
        raise InvalidFraction(f"{alpha}/{beta} is not reduced")
    terms = []
    num, den = alpha, beta
    while den:
        if len(terms) == MAX_VERTICES:
            raise TooManyVertices(
                f"{alpha}/{beta} expands to more than {MAX_VERTICES} terms, "
                f"and a forest holds at most {MAX_VERTICES} vertices"
            )
        a = -(-num // den)  # ceiling
        terms.append(a)
        num, den = den, a * den - num
    if any(a < 2 for a in terms):
        raise InternalInvariantViolation("continued fraction produced a term < 2")
    return terms


def normalize(data: SeifertData) -> SeifertData:
    """Reduce every beta mod alpha into [0, alpha); drop trivial legs."""
    data.validate()
    legs = []
    for alpha, beta in data.legs:
        reduced = beta % alpha
        if reduced:
            legs.append((alpha, reduced))
    return SeifertData(e0=data.e0, legs=tuple(legs))


def reverse_orientation(normalized: SeifertData) -> SeifertData:
    legs = tuple((alpha, alpha - beta) for alpha, beta in normalized.legs)
    return SeifertData(e0=-normalized.e0 - len(legs), legs=legs)


def euler_number(normalized: SeifertData) -> Fraction:
    return normalized.e0 + sum(
        Fraction(beta, alpha) for alpha, beta in normalized.legs
    )


def _build_star(normalized: SeifertData) -> PlumbingForest:
    vertices = [("c", normalized.e0)]
    edges = []
    for j, (alpha, beta) in enumerate(normalized.legs, start=1):
        previous = "c"
        for t, a in enumerate(cont_frac_expand(alpha, beta), start=1):
            vid = f"{j}.{t}"
            vertices.append((vid, -a))
            edges.append((previous, vid))
            previous = vid
        if len(vertices) > MAX_VERTICES:  # before the next leg adds more
            raise TooManyVertices(f"a forest holds at most {MAX_VERTICES} vertices")
    return validate_forest(vertices, edges)


@dataclass(frozen=True)
class SeifertConversion:
    forest: PlumbingForest
    used: SeifertData  # normalized data of the orientation actually built
    reversed_orientation: bool
    euler: Fraction
    h1_order: int


def seifert_to_plumbing(data: SeifertData) -> SeifertConversion:
    """Star-shaped negative-definite plumbing of the Seifert data, with -1 edges.

    The legs are negative definite and the centre's Schur complement is the
    Euler number e, so the star is negative definite iff e < 0.  Only the
    orientation with e < 0 is built (reversing negates e); e = 0 bounds no
    negative-definite star.  The leaf-first pass of
    :func:`~plumblat.plumbing.definiteness` certifies the star, and the
    order |H_1| from the Seifert data formula is checked exactly against its
    determinant.
    """
    normalized = normalize(data)
    euler = euler_number(normalized)
    if not euler:
        raise NotNegativeDefiniteEitherOrientation(
            "neither orientation of the Seifert data bounds a negative-definite star"
        )
    reversed_flag = euler > 0
    used = reverse_orientation(normalized) if reversed_flag else normalized
    euler = euler_number(used)
    forest = _build_star(used)
    det, kind = definiteness(forest)
    if kind is not Definiteness.NEGATIVE_DEFINITE:
        raise InternalInvariantViolation(f"the star of Euler number {euler} is {kind.value}")
    order = euler
    for alpha, _ in used.legs:
        order *= alpha
    if order.denominator != 1:
        raise InternalInvariantViolation("alpha-product times Euler number is not an integer")
    h1 = abs(int(order))
    if h1 != abs(det):
        raise InternalInvariantViolation(f"det {det} disagrees with Seifert |H1| {h1}")
    return SeifertConversion(
        forest=forest,
        used=used,
        reversed_orientation=reversed_flag,
        euler=euler,
        h1_order=h1,
    )
