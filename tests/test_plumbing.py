"""Forest validation, intersection forms, bad vertices, semidefiniteness."""

from __future__ import annotations

import json
import sys

import pytest

import oracle_intlinalg as oracle
from conftest import FIXTURES, e8, elliptic_a, lens, random_forest, random_zero_bad_forest
from plumblat import (
    Definiteness,
    EdgeSign,
    bad_vertices,
    canonical_class,
    intersection_form,
    intlinalg,
    parse_sfs,
    seifert_to_plumbing,
    semidefinite_classify,
    surgery_triple,
    validate_forest,
)
from plumblat.cli import main
from plumblat.errors import (
    CycleDetected,
    DanglingEdge,
    DuplicateEdge,
    DuplicateVertexId,
    MistypedForestData,
    NotApplicable,
    SelfLoop,
)
from test_intlinalg import det_gauss


def test_single_vertex_forest_is_valid():
    forest = validate_forest([("a", -2)])
    assert forest.ids == ("a",)
    assert forest.framings == (-2,)


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ([("a", -2.7)], []),
        ([("a", -2), ("b", True)], []),
        ([("a", "-3")], []),
        ([("a", None)], []),
        ([(7, -2)], []),
        ([("a", -2), ("b", -2)], [("a", ["b"])]),
    ],
)
def test_validate_forest_rejects_mistyped_data(vertices, edges):
    """Framings must be ints and ids strings: nothing is coerced, and the
    error is a validation error (exit code 2), not a bare TypeError."""
    with pytest.raises(MistypedForestData) as info:
        validate_forest(vertices, edges)
    assert info.value.exit_code == 2


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        validate_forest([("a", -2), ("b", -2)], [("a", "b"), ("b", "a")])


def test_triangle_rejected():
    with pytest.raises(CycleDetected):
        validate_forest(
            [("a", -1), ("b", -1), ("c", -1)],
            [("a", "b"), ("b", "c"), ("c", "a")],
        )


def test_other_validation_errors():
    with pytest.raises(DuplicateVertexId):
        validate_forest([("a", -2), ("a", -3)])
    with pytest.raises(SelfLoop):
        validate_forest([("a", -2)], [("a", "a")])
    with pytest.raises(DanglingEdge):
        validate_forest([("a", -2)], [("a", "b")])


def test_empty_forest_is_s3():
    form = intersection_form(validate_forest([]))
    assert form.determinant == 1
    assert form.definiteness is Definiteness.NEGATIVE_DEFINITE


def test_single_vertex_form():
    form = intersection_form(lens(3))
    assert form.matrix == ((-3,),)
    assert form.determinant == -3
    assert form.definiteness is Definiteness.NEGATIVE_DEFINITE


def test_e8_unimodular():
    form = intersection_form(e8())
    assert abs(form.determinant) == 1
    assert form.determinant == det_gauss(form.matrix)
    assert form.definiteness is Definiteness.NEGATIVE_DEFINITE


def test_elliptic_a_form():
    form = intersection_form(elliptic_a())
    assert form.definiteness is Definiteness.NEGATIVE_DEFINITE
    assert abs(form.determinant) == 4
    assert form.determinant == det_gauss(form.matrix)


def test_matrix_shape_and_support(rng):
    for _ in range(30):
        forest = random_forest(rng, require_negdef=False)
        form = intersection_form(forest)
        n = len(forest)
        edge_set = {frozenset(e) for e in forest.edges}
        for i in range(n):
            assert form.matrix[i][i] == forest.framings[i]
            for j in range(n):
                assert form.matrix[i][j] == form.matrix[j][i]
                if i != j:
                    expected = (
                        forest.edge_sign.value
                        if frozenset((i, j)) in edge_set
                        else 0
                    )
                    assert form.matrix[i][j] == expected


def test_determinant_invariant_under_reordering(rng):
    for _ in range(20):
        forest = random_forest(rng, require_negdef=False)
        ids = list(zip(forest.ids, forest.framings))
        edges = [(forest.ids[a], forest.ids[b]) for a, b in forest.edges]
        order = list(range(len(ids)))
        rng.shuffle(order)
        permuted = validate_forest([ids[i] for i in order], edges)
        assert abs(intersection_form(permuted).determinant) == abs(
            intersection_form(forest).determinant
        )


def test_minor_criterion_matches_psd_classification(rng):
    for _ in range(40):
        forest = random_forest(rng, lo=-4, require_negdef=False)
        form = intersection_form(forest)
        minors = [
            det_gauss([row[:k] for row in form.matrix[:k]]) for k in range(1, len(form) + 1)
        ]
        negdef_by_minors = all((-1) ** (k + 1) * m > 0 for k, m in enumerate(minors))
        negated = [[-x for x in row] for row in form.matrix]
        assert negdef_by_minors == (
            oracle.psd_classify(negated) == oracle.POSITIVE_DEFINITE
        )
        assert negdef_by_minors == form.is_negative_definite


def test_leaf_first_pass_matches_oracle(rng):
    """Determinant and definiteness of the leaf-first pass equal the dense
    certificate on seeded forests of both conventions.  Framings up to +2,
    or in [-3, 0] on dense trees, make zero pivots at leaves and singular,
    semidefinite and indefinite forms common."""
    seen = {kind: 0 for kind in Definiteness}
    singular = 0
    for trial in range(800):
        sign = (EdgeSign.MINUS_ONE, EdgeSign.PLUS_ONE)[trial % 2]
        hi = (2, 0)[trial // 2 % 2]
        forest = random_forest(
            rng, max_vertices=9, lo=-4 + (hi == 0), hi=hi, edge_probability=0.85,
            require_negdef=False, edge_sign=sign,
        )
        form = intersection_form(forest)
        det, definiteness = oracle.reference_form_certificate(form.matrix)
        assert (form.determinant, form.definiteness) == (det, definiteness), forest
        seen[definiteness] += 1
        singular += det == 0
    assert min(seen.values()) >= 25 and singular >= 100, (seen, singular)


def test_star_23_vertices_matches_oracle():
    """The 23-vertex Seifert star -2; 2/1 3/1 21/20 in both conventions."""
    star = seifert_to_plumbing(parse_sfs("-2; 2/1 3/1 21/20")).forest
    for sign in EdgeSign:
        form = intersection_form(star.with_edge_sign(sign))
        assert len(form) == 23
        assert (form.determinant, form.definiteness) == oracle.reference_form_certificate(
            form.matrix
        ) == (-27, Definiteness.NEGATIVE_DEFINITE)
        assert intlinalg.adjugate(form.matrix) == oracle.adjugate(form.matrix)


def test_bad_vertices():
    assert bad_vertices(lens(3)) == []
    assert bad_vertices(e8()) == ["v5"]
    star = validate_forest(
        [("c", -2), ("l1", -2), ("l2", -2), ("l3", -2)],
        [("c", "l1"), ("c", "l2"), ("c", "l3")],
    )
    assert bad_vertices(star) == ["c"]


def test_canonical_class():
    assert canonical_class(lens(2)).evals == (0,)
    assert canonical_class(lens(5)).evals == (3,)
    assert canonical_class(e8()).evals == (0,) * 8


def test_semidefinite_classify():
    zero = validate_forest([("a", 0)])
    assert semidefinite_classify(zero).kind == "s1_x_s2_component"
    pair = validate_forest([("a", -1), ("b", -1)], [("a", "b")])
    verdict = semidefinite_classify(pair)
    assert verdict.kind == "s1_x_s2_component"
    assert verdict.component == ("a", "b")
    assert semidefinite_classify(lens(2)).kind == "negative_definite"
    with pytest.raises(NotApplicable):
        semidefinite_classify(e8())


def test_verdicts_build_no_dense_form(monkeypatch, capsys):
    """A determinant or a definiteness verdict comes from the leaf-first
    pass alone: with every binding of ``intersection_form`` made to raise,
    ``info``, ``semidefinite_classify`` and ``surgery_triple`` still answer."""
    import plumblat.moves  # noqa: F401  (bind its names before patching)
    from plumblat import plumbing

    original = plumbing.intersection_form

    def refuse(forest):
        raise AssertionError("a dense intersection form was built")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "plumblat" and vars(module).get("intersection_form") is original:
            monkeypatch.setattr(module, "intersection_form", refuse)
    assert main(["info", "--json", str(FIXTURES / "e8.plumb")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["determinant"], report["definiteness"]) == (1, "negative_definite")
    assert semidefinite_classify(lens(2)).kind == "negative_definite"
    assert surgery_triple(lens(3), "v").valid
    assert not surgery_triple(e8(), "v1").valid


def test_zero_bad_forests_never_indefinite(rng):
    """Zero-bad-vertex forests are negative semidefinite, never indefinite."""
    for _ in range(60):
        forest = random_zero_bad_forest(rng)
        verdict = semidefinite_classify(forest)
        assert verdict.kind in ("negative_definite", "s1_x_s2_component")
        form = intersection_form(forest)
        assert form.definiteness in (
            Definiteness.NEGATIVE_DEFINITE,
            Definiteness.NEGATIVE_SEMIDEFINITE,
        )


def test_edge_sign_stored():
    forest = validate_forest([("a", -2), ("b", -2)], [("a", "b")], EdgeSign.PLUS_ONE)
    form = intersection_form(forest)
    assert form.matrix[0][1] == 1
    assert form.edge_sign is EdgeSign.PLUS_ONE


def test_adjacency_matches_a_scan_of_edges(rng):
    """``adjacency`` lists each vertex's neighbours in edge order, built
    once per forest; ``degree``, ``degrees`` and ``neighbors`` read it."""
    forests = [validate_forest([]), lens(3), e8(), elliptic_a()]
    for i in range(60):
        sign = EdgeSign.PLUS_ONE if i % 2 else EdgeSign.MINUS_ONE
        forests.append(random_forest(rng, max_vertices=9, require_negdef=False, edge_sign=sign))
    for forest in forests:
        scan = [
            tuple(b if a == v else a for a, b in forest.edges if v in (a, b))
            for v in range(len(forest))
        ]
        assert forest.adjacency == tuple(scan)
        assert forest.adjacency is forest.adjacency
        assert forest.degrees() == [len(near) for near in scan]
        for v, near in enumerate(scan):
            assert forest.degree(v) == len(near)
            assert forest.neighbors(v) == sorted(near)
