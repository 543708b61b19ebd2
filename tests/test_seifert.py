"""Continued fractions and the Seifert-to-star conversion."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumblat import (
    bad_vertices,
    compute_homology,
    cont_frac_expand,
    intersection_form,
    is_rational,
    parse_sfs,
    seifert_to_plumbing,
)
from plumblat.charlattice import OrbitIndexer
from plumblat.cli import main
from plumblat.errors import (
    InvalidFraction,
    NotNegativeDefiniteEitherOrientation,
    SeifertInputError,
    TooManyVertices,
)
from plumblat.plumbing import MAX_VERTICES
from plumblat.seifert import SeifertData, normalize


def eval_negative_cf(terms):
    """Value of [a_1, ..., a_k] = a_1 - 1/(a_2 - 1/(...)), over exact rationals."""
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a - Fraction(1) / value
    return value


def test_expansion_examples():
    assert cont_frac_expand(2, 1) == [2]
    assert cont_frac_expand(5, 2) == [3, 2]
    assert cont_frac_expand(7, 4) == [2, 4]


def test_expansion_errors():
    with pytest.raises(InvalidFraction):
        cont_frac_expand(4, 0)
    with pytest.raises(InvalidFraction):
        cont_frac_expand(4, 4)
    with pytest.raises(InvalidFraction):
        cont_frac_expand(6, 4)


@given(st.integers(2, 200), st.integers(1, 199))
@settings(max_examples=300, deadline=None)
def test_expansion_reconstructs(alpha, beta):
    beta %= alpha
    if beta == 0 or gcd(alpha, beta) != 1:
        return
    terms = cont_frac_expand(alpha, beta)
    assert all(a >= 2 for a in terms)
    assert eval_negative_cf(terms) == Fraction(alpha, beta)


def test_parse_sfs():
    data = parse_sfs("-1; 2/1 5/1 5/-4")
    assert data.e0 == -1
    assert data.legs == ((2, 1), (5, 1), (5, -4))
    with pytest.raises(SeifertInputError):
        parse_sfs("x; 2/1")
    with pytest.raises(SeifertInputError):
        parse_sfs("0; 21")
    with pytest.raises(SeifertInputError):
        parse_sfs("0; 4/2")


@pytest.mark.parametrize(
    "text",
    [" -1_0; 2/1 3/1", "-\u0661; 2/1 3/1", "-1; 2/1 3/1_0", "-1; \u0662/1 3/1",
     "-1; 2/1 3/+-1", "-1.0; 2/1"],
)
def test_parse_sfs_takes_ascii_integers_only(capsys, text):
    """int() would read -1_0 as -10 and non-ASCII digits as digits."""
    with pytest.raises(SeifertInputError):
        parse_sfs(text)
    code = main(["sfs", "--sfs", text, "info"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("plumblat: error: ")


def test_parse_sfs_keeps_signed_integers():
    data = parse_sfs(" -1 ; 2/+1 5/-4 ")
    assert data.e0 == -1
    assert data.legs == ((2, 1), (5, -4))


@pytest.mark.parametrize("p", [100_000, 1_000_000_000])
def test_long_leg_trips_the_vertex_limit_before_allocating(capsys, p):
    """-2; 2/1 3/1 p/(p-1) needs p + 2 vertices: the expansion stops at the
    vertex limit, before the term list or the dense matrix grow with p."""
    tracemalloc.start()
    try:
        code = main(["sfs", "--sfs", f"-2; 2/1 3/1 {p}/{p - 1}", "info"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        f"plumblat: error: {p}/{p - 1} expands to more than {MAX_VERTICES} terms, "
        f"and a forest holds at most {MAX_VERTICES} vertices\n"
    )
    assert peak < 2**20
    with pytest.raises(TooManyVertices):
        cont_frac_expand(p, p - 1)


def test_vertex_limit_counts_every_leg():
    """At e0 = -3 the three 500/499 legs give e = -0.006, and the
    negative-definite star is the given one, of 1 + 3 * 499 vertices."""
    legs = " ".join([f"{MAX_VERTICES // 2}/{MAX_VERTICES // 2 - 1}"] * 3)
    with pytest.raises(TooManyVertices, match=f"at most {MAX_VERTICES} vertices"):
        seifert_to_plumbing(parse_sfs(f"-3; {legs}"))
    # at e0 = -2, e = 0.994 > 0: only the reversed star is built, and it is
    # the 4-vertex star of -1; 500/1 500/1 500/1
    reversed_star = seifert_to_plumbing(parse_sfs(f"-2; {legs}"))
    assert reversed_star.reversed_orientation
    assert len(reversed_star.forest) == 4
    assert reversed_star.forest == seifert_to_plumbing(parse_sfs("-1; 500/1 500/1 500/1")).forest
    assert main(["sfs", "--sfs", f"-2; {legs}", "info"]) == 0
    assert len(cont_frac_expand(MAX_VERTICES + 1, MAX_VERTICES)) == MAX_VERTICES
    conversion = seifert_to_plumbing(parse_sfs("-2; 2/1 3/1 100/99"))
    assert len(conversion.forest) == 102


def test_normalization():
    data = normalize(SeifertData(e0=-1, legs=((2, 1), (5, -4), (1, 7))))
    assert data.e0 == -1
    assert data.legs == ((2, 1), (5, 1))


def test_leg_expansion_5_2():
    conversion = seifert_to_plumbing(SeifertData(e0=-2, legs=((5, 2),)))
    forest = conversion.forest
    assert forest.framings == (-2, -3, -2)
    assert not conversion.reversed_orientation


def test_m038_star_shapes():
    first = seifert_to_plumbing(parse_sfs("-1; 2/1 5/1 5/-4"))
    assert first.h1_order == 5
    assert first.euler == Fraction(-1, 10)
    assert sorted(first.forest.framings) == [-5, -5, -2, -1]
    second = seifert_to_plumbing(parse_sfs("-1; 3/1 4/1 4/-3"))
    assert second.h1_order == 8
    assert second.euler == Fraction(-1, 6)


def test_single_leg_collapses_to_s3():
    """One (p,1) fiber over an untwisted base is the three-sphere: the
    reversed star is a chain that blows down completely."""
    for p in (2, 3, 5, 7):
        conversion = seifert_to_plumbing(SeifertData(e0=0, legs=((p, 1),)))
        result = compute_homology(conversion.forest)
        assert conversion.reversed_orientation  # e0 = 0 side is positive
        assert result.det_abs == 1
        assert result.total_dim == 1


def test_lens_spaces_through_seifert_data():
    for p in (3, 5, 8):
        legless = seifert_to_plumbing(SeifertData(e0=-p, legs=()))
        result = compute_homology(legless.forest)
        assert result.det_abs == p and result.total_dim == p
        one_leg = seifert_to_plumbing(SeifertData(e0=-1, legs=((p, 1),)))
        result = compute_homology(one_leg.forest)
        assert result.det_abs == p - 1 and result.total_dim == p - 1


def test_orientation_reversal_flagged():
    conversion = seifert_to_plumbing(parse_sfs("0; 2/1 3/1 5/1"))
    assert conversion.reversed_orientation
    assert intersection_form(conversion.forest).is_negative_definite


def test_zero_euler_number_rejected():
    with pytest.raises(NotNegativeDefiniteEitherOrientation):
        seifert_to_plumbing(parse_sfs("0;"))


def test_star_has_at_most_one_bad_vertex(rng):
    """Only the central vertex of the star can be bad."""
    for _ in range(40):
        legs = []
        for _ in range(rng.randint(0, 4)):
            alpha = rng.randint(1, 9)
            candidates = [b for b in range(-9, 10) if b and gcd(alpha, abs(b)) == 1]
            if not candidates:
                continue
            legs.append((alpha, rng.choice(candidates)))
        data = SeifertData(e0=rng.randint(-4, 4), legs=tuple(legs))
        try:
            conversion = seifert_to_plumbing(data)
        except NotNegativeDefiniteEitherOrientation:
            continue
        bad = bad_vertices(conversion.forest)
        assert len(bad) <= 1
        if bad:
            assert bad == ["c"]


@pytest.mark.parametrize("p", [41, 61])
def test_long_star_adjugate_determinant_and_rationality(p):
    """-2; 2/1 3/1 p/(p-1) has p + 2 vertices: the orbit indexer's adjugate
    satisfies A adj(A) = det(A) I, |det| is the Seifert |H1|, and the
    rationality enumeration runs to its verdict."""
    conversion = seifert_to_plumbing(parse_sfs(f"-2; 2/1 3/1 {p}/{p - 1}"))
    form = intersection_form(conversion.forest)
    n = len(form)
    assert n == p + 2
    adj = OrbitIndexer(form).adjugate
    for i in range(n):
        row = form.matrix[i]
        for j in range(n):
            entry = sum(row[k] * adj[k][j] for k in range(n))
            assert entry == (form.determinant if i == j else 0)
    assert abs(form.determinant) == conversion.h1_order == p + 6
    assert is_rational(conversion.forest).rational


def _seeded_seifert_data(rng, count):
    """Seifert data with alpha <= 6, 1-4 legs and e0 in -3..0 whose star (of
    either orientation) is negative definite, with each conversion."""
    found = 0
    while found < count:
        legs = []
        for _ in range(rng.randint(1, 4)):
            alpha = rng.randint(1, 6)
            beta = rng.choice([b for b in range(-alpha, alpha + 1) if gcd(alpha, abs(b)) == 1])
            legs.append((alpha, beta))
        data = SeifertData(rng.randint(-3, 0), tuple(legs))
        try:
            conversion = seifert_to_plumbing(data)
        except NotNegativeDefiniteEitherOrientation:
            continue
        found += 1
        yield data, conversion


def test_conversion_reads_beta_mod_alpha(rng):
    """beta -> beta + k alpha at the same e0 leaves the conversion as it was:
    the convention reduces beta mod alpha and leaves e0 alone."""
    for data, conversion in _seeded_seifert_data(rng, 60):
        i = rng.randrange(len(data.legs))
        alpha, beta = data.legs[i]
        for k in (-2, -1, 1, 2):
            legs = data.legs[:i] + ((alpha, beta + k * alpha),) + data.legs[i + 1:]
            moved = seifert_to_plumbing(SeifertData(data.e0, legs))
            for field in ("forest", "used", "euler", "h1_order", "reversed_orientation"):
                assert getattr(moved, field) == getattr(conversion, field), (data, k, field)


def test_leg_order_keeps_the_invariants(rng):
    """Permuting the legs keeps the Euler number, |H_1|, and the lattice
    homology's total and per-orbit dimensions."""
    def invariants(conversion):
        homology = compute_homology(conversion.forest)
        dims = sorted(orbit.dim for orbit in homology.per_orbit)
        return conversion.euler, conversion.h1_order, homology.total_dim, dims

    for data, conversion in _seeded_seifert_data(rng, 60):
        legs = list(data.legs)
        rng.shuffle(legs)
        permuted = seifert_to_plumbing(SeifertData(data.e0, tuple(legs)))
        assert invariants(permuted) == invariants(conversion), (data, legs)
