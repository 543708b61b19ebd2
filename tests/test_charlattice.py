"""Box enumeration, orbits, weights, and the local-minimum correspondence."""

from __future__ import annotations

import math
import random
from itertools import product

import pytest

from conftest import e8, lens, random_forest
from oracle_charlattice import (
    adjugate_key,
    char_to_lattice,
    coercivity_bounds,
    decode_key,
    enumerate_box,
    in_box,
    is_local_minimum,
    lattice_to_char,
    orbit_decompose,
    pd_dual,
    tuple_key,
    weight,
    weight_radius_sq_bound,
)
from plumblat import (
    CharVector,
    EdgeSign,
    LatticeVector,
    canonical_class,
    chi,
    intersection_form,
    is_characteristic,
    parse_sfs,
    seifert_to_plumbing,
    validate_forest,
)
from plumblat.charlattice import DEFAULT_BOX_CAP, BoxIndex, OrbitIndexer, box_ranges
from plumblat.errors import BoxTooLarge, ParityViolation


def chain_forest(framings):
    names = [f"v{i}" for i in range(len(framings))]
    return validate_forest(list(zip(names, framings)), list(zip(names, names[1:])))


def two_isolated(framings=(-2, -2)):
    return validate_forest([("a", framings[0]), ("b", framings[1])])


def test_pd_dual():
    form = intersection_form(lens(5))
    assert pd_dual(LatticeVector((0,)), form).evals == (0,)
    assert pd_dual(LatticeVector((1,)), form).evals == (-5,)
    form8 = intersection_form(e8())
    dual = pd_dual(LatticeVector((0, 0, 0, 0, 1, 0, 0, 0)), form8)
    assert dual.evals == (0, 0, 0, -1, -2, -1, 0, -1)


def test_enumerate_box():
    box3 = enumerate_box(intersection_form(lens(3)))
    assert [k.evals for k in box3] == [(-3,), (-1,), (1,), (3,)]
    assert len(enumerate_box(intersection_form(lens(1)))) == 2
    assert len(enumerate_box(intersection_form(two_isolated()))) == 9


def test_box_cap():
    with pytest.raises(BoxTooLarge):
        enumerate_box(intersection_form(e8()), box_cap=100)


def test_orbits_single_vertex():
    form = intersection_form(lens(3))
    orbits = orbit_decompose(enumerate_box(form), form)
    members = [sorted(k.evals[0] for k in om.members) for om in orbits]
    assert members == [[-3, 3], [-1], [1]]


def test_orbits_count_matches_det(rng):
    for _ in range(25):
        forest = random_forest(rng, max_vertices=4)
        form = intersection_form(forest)
        orbits = orbit_decompose(enumerate_box(form), form)
        assert len(orbits) == abs(form.determinant)
        assert sum(len(om.members) for om in orbits) == len(enumerate_box(form))


def test_e8_single_orbit():
    form = intersection_form(e8())
    orbits = orbit_decompose(enumerate_box(form), form)
    assert len(orbits) == 1
    assert len(orbits[0].members) == 3**8


def test_chi():
    g = lens(2)
    form = intersection_form(g)
    k = canonical_class(g)
    assert chi(LatticeVector((0,)), k, form) == 0
    assert chi(LatticeVector((1,)), k, form) == 1
    g8 = e8()
    form8 = intersection_form(g8)
    k8 = canonical_class(g8)
    for i in range(8):
        basis = LatticeVector(tuple(int(j == i) for j in range(8)))
        assert chi(basis, k8, form8) == 1


def test_weight():
    form = intersection_form(lens(2).with_edge_sign(EdgeSign.PLUS_ONE))
    zero = CharVector((0,))
    assert weight(LatticeVector((0,)), zero, form) == 0
    for t in range(-3, 4):
        assert weight(LatticeVector((t,)), zero, form) == t * t
    k2 = CharVector((2,))
    assert weight(LatticeVector((1,)), k2, form) == 0
    with pytest.raises(ParityViolation):
        weight(LatticeVector((1,)), CharVector((1,)), form)
    minus_form = intersection_form(lens(2))
    with pytest.raises(ValueError):
        weight(LatticeVector((0,)), zero, minus_form)


def test_lattice_char_round_trip(rng):
    for _ in range(25):
        forest = random_forest(rng, max_vertices=4)
        form = intersection_form(forest)
        n = len(form)
        k0 = CharVector(tuple(m + 2 * rng.randint(-2, 2) for m in forest.framings))
        assert is_characteristic(k0, form)
        x = LatticeVector(tuple(rng.randint(-3, 3) for _ in range(n)))
        k = lattice_to_char(x, k0, form)
        assert is_characteristic(k, form)
        assert char_to_lattice(k, k0, form) == x


def test_lattice_to_char_single_vertex():
    form = intersection_form(lens(2))
    out = lattice_to_char(LatticeVector((1,)), CharVector((0,)), form)
    assert out.evals == (-4,)


def test_local_minimum_examples():
    form = intersection_form(lens(2).with_edge_sign(EdgeSign.PLUS_ONE))
    zero = CharVector((0,))
    assert is_local_minimum(LatticeVector((0,)), zero, form)
    assert not is_local_minimum(LatticeVector((1,)), zero, form)
    form8 = intersection_form(e8().with_edge_sign(EdgeSign.PLUS_ONE))
    assert is_local_minimum(LatticeVector((0,) * 8), CharVector((0,) * 8), form8)


def test_local_minimum_iff_box_membership(rng):
    """The weight comparison agrees with box membership of k0 + 2x*."""
    for _ in range(150):
        forest = random_forest(rng, max_vertices=4, lo=-4)
        for sign in (EdgeSign.MINUS_ONE, EdgeSign.PLUS_ONE):
            form = intersection_form(forest.with_edge_sign(sign))
            if not form.is_negative_definite:
                continue
            n = len(form)
            k0 = CharVector(
                tuple(m + 2 * rng.randint(-2, 2) for m in forest.framings)
            )
            x = LatticeVector(tuple(rng.randint(-3, 3) for _ in range(n)))
            member = in_box(lattice_to_char(x, k0, form).evals, form)
            assert is_local_minimum(x, k0, form) == member


def test_coercivity_and_radius_bounds(rng):
    for _ in range(10):
        forest = random_forest(rng, max_vertices=4, edge_sign=EdgeSign.PLUS_ONE)
        form = intersection_form(forest)
        n = len(form)
        k0 = CharVector(tuple(m + 2 * rng.randint(-1, 1) for m in forest.framings))
        c, big_c = coercivity_bounds(form, k0)
        assert c > 0
        for _ in range(60):
            x = LatticeVector(tuple(rng.randint(-5, 5) for _ in range(n)))
            w = weight(x, k0, form)
            norm_sq = sum(v * v for v in x.coords)
            assert w >= c * norm_sq - big_c
            assert norm_sq <= weight_radius_sq_bound(form, k0, w)


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_box_keys_and_orbits_agree_with_the_indexer(edge_sign):
    """On seeded random forests and a chain whose head and tail tables both
    hold several entries: every index decodes to its evaluations and its
    box key is the indexer's key of them; ``orbits()`` maps every key to
    its least index, in order of least member; and ``members(key)`` lists
    every index of that key, sorted."""
    rng = random.Random(0xB0C5)
    forests = [random_forest(rng, 6, lo=-4, edge_sign=edge_sign) for _ in range(30)]
    names = [f"v{i}" for i in range(5)]
    chain = list(zip(names, (-3, -2, -2, -2, -3))), list(zip(names, names[1:]))
    forests.append(validate_forest(*chain, edge_sign))
    split = 0
    for forest in forests:
        form = intersection_form(forest)
        box = BoxIndex(form, DEFAULT_BOX_CAP)
        split += len(box.heads) > 1 and len(box.tails) > 1
        evals = [box.evals(a) for a in range(box.size)]
        assert evals == list(product(*box_ranges(form)))
        grouped: dict[tuple[int, ...], list[int]] = {}
        for a in range(box.size):
            key = box.key(a)
            assert key == box.indexer.key(box.evals(a))
            grouped.setdefault(key, []).append(a)
        orbits = box.orbits()
        assert [(key, box.members(key)) for key in orbits] == list(grouped.items())
        assert len(orbits) == abs(form.determinant)
        assert list(orbits.items()) == [(key, m[0]) for key, m in grouped.items()]
    assert split >= 2


def test_set_bits_lists_every_index_in_order():
    """The bit-lister and the shift against sets of known indices: empty,
    single, byte-edge, a run of whole 0xff bytes, long sparse and random
    dense sets."""
    rng = random.Random(0x5E7B)
    cases = [[], [0], [7], [8], list(range(64)), [3, 10**5]]
    cases += [sorted(rng.sample(range(2 * 10**5), 50)) for _ in range(5)]
    for _ in range(200):
        size = rng.randrange(1, 3000)
        cases.append([a for a in range(size) if rng.random() < 0.5])
    for indices in cases:
        bits = sum(1 << a for a in indices)
        assert BoxIndex.set_bits(bits) == indices
        for offset in (5, -3):
            moved = [a + offset for a in indices if a + offset >= 0]
            assert BoxIndex.set_bits(BoxIndex.shift(bits, offset)) == moved


@pytest.mark.parametrize("edge_sign", list(EdgeSign))
def test_smith_keys_give_the_adjugate_partition(edge_sign):
    """On every box vector of seeded forests, the Smith normal form key and
    the reference key adj(A) k mod 2|det| split the box alike: each key of
    one names exactly one key of the other.  Each packed key decodes to one
    residue per invariant factor above 1."""
    rng = random.Random(0x5417)
    for _ in range(40):
        forest = random_forest(rng, 6, lo=-4, edge_sign=edge_sign)
        form = intersection_form(forest)
        box = BoxIndex(form, DEFAULT_BOX_CAP)
        reference = adjugate_key(form)
        pairs = {(box.key(a), reference(box.evals(a))) for a in range(box.size)}
        assert len(pairs) == len({k for k, _ in pairs}) == len({r for _, r in pairs})
        assert len(pairs) == abs(form.determinant)
        assert all(len(decode_key(box.indexer, k)) == len(box.indexer.moduli) for k, _ in pairs)
        assert math.prod(box.indexer.moduli) == abs(form.determinant)


def test_key_rejects_a_vector_that_is_not_characteristic():
    """A key is never rounded: an odd digit raises, whole or in part."""
    indexer = BoxIndex(intersection_form(lens(5)), DEFAULT_BOX_CAP).indexer
    assert indexer.key((-3,)) == indexer.key(CharVector((7,)))
    for k in ((-4,), (0,), CharVector((2,))):
        with pytest.raises(ParityViolation):
            indexer.key(k)
    chain = intersection_form(validate_forest([("a", -3), ("b", -2)], [("a", "b")]))
    indexer = BoxIndex(chain, DEFAULT_BOX_CAP).indexer
    assert indexer.moduli == (5,)
    assert indexer.key((-3, -2)) == 0 and decode_key(indexer, 0) == (0,)  # all digits 0
    assert indexer.key((0,), 1) == indexer.key((-3, 0)) != 0  # a tail: digit 1 at b
    with pytest.raises(ParityViolation):
        indexer.key((1,), 1)


def _star(text):
    return seifert_to_plumbing(parse_sfs(text)).forest


@pytest.mark.parametrize(
    "forest, width",
    [
        (e8(), 0),
        (_star("-1; 2/1 3/1 7/1"), 0),  # the Brieskorn sphere Sigma(2, 3, 7)
        *((chain_forest([-3] + [-2] * k + [-3]), 1) for k in range(5)),
        (_star("-3; 2/1 2/1 2/1 2/1"), 3),
        (_star("-2; 3/1 3/1 3/1 3/1"), 3),
    ],
)
def test_key_width_on_named_inputs(forest, width):
    """Keys decode to no residue (key 0) on the integer homology spheres,
    one residue on every (-3, -2^k, -3) chain (a lens space), three on the
    stars with H_1 of rank 3."""
    box = BoxIndex(intersection_form(forest), DEFAULT_BOX_CAP)
    assert len(box.indexer.moduli) == width
    keys = [box.key(a) for a in range(0, box.size, 7)]
    assert {len(decode_key(box.indexer, k)) for k in keys} == {width}
    assert width or set(keys) == {0}
    assert len(box.orbits()) == abs(box.indexer.determinant)


def _disjoint_twos(k: int):
    """k disjoint (-2)-vertices: H_1 is (Z/2)^k and the box 3^k."""
    return validate_forest([(f"v{i}", -2) for i in range(k)], [])


def test_packed_keys_match_the_tuple_key():
    """Against the residue-tuple key U d mod d_i, on 25 seeded forests with
    two or more invariant factors above 1, the (3, 3, 6) star and 1..6
    disjoint (-2)-vertices: every box index's packed key, and the indexer's
    key of its evaluations, decode to its tuple key; ``orbits()`` lists the
    tuple key's orbits in order of least member, each with that member; and
    ``members(key)`` lists each orbit's indices in increasing order."""
    rng = random.Random(0x9AC4)
    forests = []
    while len(forests) < 25:
        sign = rng.choice(list(EdgeSign))
        forest = random_forest(rng, 6, lo=-4, edge_probability=0.4, edge_sign=sign)
        if len(OrbitIndexer(intersection_form(forest)).moduli) >= 2:
            forests.append(forest)
    forests.append(_star("-2; 3/1 3/1 3/1 3/1"))
    forests += [_disjoint_twos(k) for k in range(1, 7)]
    for forest in forests:
        form = intersection_form(forest)
        box, reference = BoxIndex(form, DEFAULT_BOX_CAP), tuple_key(form)
        grouped: dict[tuple[int, ...], list[int]] = {}
        for a in range(box.size):
            residues = reference(box.evals(a))
            assert decode_key(box.indexer, box.key(a)) == residues
            assert box.indexer.key(box.evals(a)) == box.key(a)
            grouped.setdefault(residues, []).append(a)
        orbits = box.orbits()
        assert [(decode_key(box.indexer, k), a) for k, a in orbits.items()] == [
            (residues, members[0]) for residues, members in grouped.items()
        ]
        assert [box.members(k) for k in orbits] == list(grouped.values())
    assert OrbitIndexer(intersection_form(forests[25])).moduli == (3, 3, 6)


def test_disjoint_twos_find_every_orbit_with_keys_of_o_k_bits():
    """Fifteen disjoint (-2)-vertices: H_1 = (Z/2)^15, a box of 3^15
    vectors under the default cap.  ``orbits()`` finds all 2^15 orbits,
    their keys decode to every 0/1 residue vector, an orbit with z zero
    residues has 2^z members, and nothing built for the keys grows with
    |det| or 2^15: the tables hold sqrt-box entries and each constant
    has 15 fields of 4 bits."""
    k = 15
    box = BoxIndex(intersection_form(_disjoint_twos(k)), DEFAULT_BOX_CAP)
    indexer = box.indexer
    assert indexer.moduli == (2,) * k and indexer.width == 4
    assert max(*indexer.carry, indexer.full).bit_length() <= 4 * k
    assert len(box.head_keys) * len(box.tail_keys) == box.size == 3**k
    assert len(box.head_keys) + len(box.tail_keys) < 4 * math.isqrt(box.size)
    orbits = box.orbits()
    residues = [decode_key(indexer, key) for key in orbits]
    assert sorted(residues) == list(product((0, 1), repeat=k))
    for key, found in list(zip(orbits, residues))[:: 2**k // 64]:
        assert len(box.members(key)) == 2 ** found.count(0)
