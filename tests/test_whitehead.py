import random

import pytest

from freesplit.errors import InvalidInputError
from freesplit.whitehead import (
    DECOMPOSABLE,
    INDECOMPOSABLE,
    build_whitehead_graph,
    decide_indecomposable,
    family_from_texts,
    minimize,
    recognize_basis,
    whitehead_moves,
)
from freesplit.words import (
    Alphabet,
    CyclicWord,
    MultiplierAutomorphism,
    apply_automorphism,
    cyclic_reduce,
    free_reduce,
    parse_word,
    total_cyclic_length,
)

import helpers


ALPH2 = Alphabet(2)


def fam(*texts, rank=2):
    return family_from_texts(Alphabet(rank), texts)


def edge_set(graph):
    return {(u, v): m for u, v, m in graph.edges()}


class TestBuildGraph:
    def test_commutator_four_cycle(self):
        g = build_whitehead_graph(ALPH2, fam("abAB"))
        assert edge_set(g) == {(1, 2): 1, (1, -2): 1, (-1, 2): 1, (-1, -2): 1}
        assert g.total_edges() == 4

    def test_single_letter_single_edge(self):
        g = build_whitehead_graph(ALPH2, fam("a"))
        assert edge_set(g) == {(1, -1): 1}
        assert g.components() == (frozenset({1, -1}), frozenset({2}), frozenset({-2}))

    def test_empty_family(self):
        g = build_whitehead_graph(ALPH2, ())
        assert g.total_edges() == 0
        assert len(g.components()) == 4

    def test_against_pair_recount(self):
        rng = random.Random(41)
        for _ in range(200):
            rank = rng.randint(1, 4)
            family = helpers.random_family(rng, rank, 4, 16)
            g = build_whitehead_graph(Alphabet(rank), family)
            recount = helpers.whitehead_pair_recount(family, rank)
            assert {frozenset((u, v)): m for u, v, m in g.edges()} == recount

    def test_edge_count_identity(self):
        rng = random.Random(43)
        for _ in range(200):
            rank = rng.randint(1, 4)
            family = helpers.random_family(rng, rank, 4, 24)
            g = build_whitehead_graph(Alphabet(rank), family)
            assert g.total_edges() == total_cyclic_length(family)

    def test_no_loops_possible(self):
        rng = random.Random(47)
        for _ in range(100):
            family = helpers.random_family(rng, 3, 3, 12)
            g = build_whitehead_graph(Alphabet(3), family)
            for u, v, _ in g.edges():
                assert u != v


class TestMoves:
    def test_move_count(self):
        for rank in (1, 2, 3):
            moves = list(whitehead_moves(Alphabet(rank)))
            assert len(moves) == 2 * rank * 2 ** (2 * rank - 2)
            assert len(set(moves)) == len(moves)


class TestMinimize:
    def test_reducible_pair(self):
        minimized, trace = minimize(ALPH2, fam("ab", "b"))
        assert set(minimized) == set(fam("a", "b"))
        assert len(trace.steps) == 1
        assert (trace.steps[0].length_before, trace.steps[0].length_after) == (3, 2)

    def test_commutator_already_minimal(self):
        minimized, trace = minimize(ALPH2, fam("abAB"))
        assert minimized == fam("abAB")
        assert trace.steps == ()
        assert trace.composite.is_identity()

    def test_single_letter_minimal(self):
        minimized, trace = minimize(ALPH2, fam("a"))
        assert minimized == fam("a") and trace.steps == ()

    def test_trace_contract_randomized(self):
        rng = random.Random(53)
        for _ in range(60):
            rank = rng.randint(1, 3)
            family = helpers.random_family(rng, rank, 3, 10)
            minimized, trace = minimize(Alphabet(rank), family)
            length = total_cyclic_length(family)
            assert len(trace.steps) <= length
            for step in trace.steps:
                assert step.length_after < step.length_before
            # composite really maps the input family onto the output
            assert tuple(
                trace.composite.apply_cyclic(w) for w in family
            ) == minimized
            # minimize is a fixed point on its own output
            again, trace2 = minimize(Alphabet(rank), minimized)
            assert again == minimized and trace2.steps == ()

    def test_minimal_graph_has_no_cut_vertex(self):
        rng = random.Random(59)
        for _ in range(80):
            rank = rng.randint(1, 3)
            family = helpers.random_family(rng, rank, 3, 10)
            minimized, _ = minimize(Alphabet(rank), family)
            graph = build_whitehead_graph(Alphabet(rank), minimized)
            if len(graph.components()) == 1:
                ok, cuts = graph.is_two_vertex_connected()
                assert ok, (family, minimized, cuts)


class TestDecide:
    def test_commutator_indecomposable(self):
        verdict = decide_indecomposable(ALPH2, fam("abAB"))
        assert verdict.decision == INDECOMPOSABLE
        assert verdict.bipartition is None
        assert verdict.graph.is_two_vertex_connected()[0]

    def test_single_letter_decomposable(self):
        verdict = decide_indecomposable(ALPH2, fam("a"))
        assert verdict.decision == DECOMPOSABLE
        assert verdict.bipartition == (frozenset({1}), frozenset({2}))

    def test_aabb_indecomposable(self):
        verdict = decide_indecomposable(ALPH2, fam("aabb"))
        assert verdict.decision == INDECOMPOSABLE

    def test_primitive_word_decomposable(self):
        verdict = decide_indecomposable(ALPH2, fam("ab"))
        assert verdict.decision == DECOMPOSABLE

    def test_rank3_commutator_decomposable(self):
        verdict = decide_indecomposable(Alphabet(3), fam("abAB", rank=3))
        assert verdict.decision == DECOMPOSABLE
        left, right = verdict.bipartition
        assert {1, 2} in (left, right) and {3} in (left, right)

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidInputError):
            decide_indecomposable(ALPH2, ())

    def test_non_cyclic_word_rejected(self):
        with pytest.raises(InvalidInputError):
            decide_indecomposable(ALPH2, [(1, 2)])

    def test_certificate_soundness(self):
        rng = random.Random(61)
        seen_decomposable = 0
        for _ in range(80):
            rank = rng.randint(2, 3)
            family = helpers.random_family(rng, rank, 3, 8)
            verdict = decide_indecomposable(Alphabet(rank), family)
            if verdict.decision != DECOMPOSABLE:
                continue
            seen_decomposable += 1
            left, right = verdict.bipartition
            assert left and right and not (left & right)
            assert left | right == set(range(1, rank + 1))
            for w in verdict.minimized:
                support = w.generator_support()
                assert support <= left or support <= right
            # the emitted automorphism really produces the minimized family
            assert tuple(
                verdict.automorphism.apply_cyclic(w) for w in family
            ) == verdict.minimized
        assert seen_decomposable >= 10

    def test_automorphism_covariance(self):
        rng = random.Random(67)
        letters = [s * i for i in range(1, 3) for s in (1, -1)]
        for _ in range(40):
            family = helpers.random_family(rng, 2, 2, 6)
            x = rng.choice(letters)
            side = {x} | {y for y in letters if y not in (x, -x) and rng.random() < 0.5}
            phi = MultiplierAutomorphism(2, x, frozenset(side))
            moved = tuple(apply_automorphism(phi, w) for w in family)
            d1 = decide_indecomposable(ALPH2, family).decision
            d2 = decide_indecomposable(ALPH2, moved).decision
            assert d1 == d2, (family, phi)


class TestRecognizeBasis:
    def test_standard_basis(self):
        ok, witness = recognize_basis(ALPH2, fam("a", "b"))
        assert ok and witness.is_identity()

    def test_nielsen_pair(self):
        ok, witness = recognize_basis(ALPH2, fam("ab", "b"))
        assert ok
        images = {tuple(witness.apply_cyclic(w).letters) for w in fam("ab", "b")}
        assert images == {(1,), (2,)}

    def test_squares_are_not_basis(self):
        ok, witness = recognize_basis(ALPH2, fam("aa", "b"))
        assert not ok and witness is None

    def test_wrong_length(self):
        assert recognize_basis(ALPH2, fam("a"))[0] is False
        assert recognize_basis(ALPH2, fam("a", "b", "ab"))[0] is False

    def test_repeated_generator_not_basis(self):
        assert recognize_basis(ALPH2, fam("a", "a"))[0] is False

    def test_product_search_oracle_agrees(self):
        # (ab, b) expresses both a and b with few factors; (aa, b) cannot
        # reach a at all (its products have even a-exponent).
        candidates = fam("ab", "b")
        assert helpers.bounded_product_search(candidates, (1,), 4) is not None
        assert helpers.bounded_product_search(candidates, (2,), 4) is not None
        squares = fam("aa", "b")
        assert helpers.bounded_product_search(squares, (1,), 6) is None

    def test_random_images_of_basis_recognised(self):
        # apply random move sequences to the standard basis; the classes
        # must always be recognised
        rng = random.Random(71)
        letters = [s * i for i in range(1, 3) for s in (1, -1)]
        for _ in range(25):
            family = list(fam("a", "b"))
            for _ in range(rng.randint(1, 4)):
                x = rng.choice(letters)
                side = {x} | {
                    y for y in letters if y not in (x, -x) and rng.random() < 0.5
                }
                phi = MultiplierAutomorphism(2, x, frozenset(side))
                family = [apply_automorphism(phi, w) for w in family]
            ok, _ = recognize_basis(ALPH2, family)
            assert ok, family


class TestComponentsOp:
    def test_four_cycle_connected(self):
        g = build_whitehead_graph(ALPH2, fam("abAB"))
        assert g.components() == (frozenset({1, -1, 2, -2}),)

    def test_path_family_has_cut_vertices(self):
        # {ab, b} gives the path a - B - b - A: connected, two cut vertices
        g = build_whitehead_graph(ALPH2, fam("ab", "b"))
        assert len(g.components()) == 1
        ok, cuts = g.is_two_vertex_connected()
        assert not ok and set(cuts) == {2, -2}
