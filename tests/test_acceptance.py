"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact; randomized corpora use fixed seeds.
"""

import random
import time

from freesplit.arcs import (
    class_count_profile,
    edge_arc_count,
    edge_counts,
    enumerate_axes,
    lemma33_certificate,
    star_graph,
)
from freesplit.gog import ONE_ENDED, double, one_ended, presentation
from freesplit.tree import build_ball
from freesplit.whitehead import (
    DECOMPOSABLE,
    INDECOMPOSABLE,
    build_whitehead_graph,
    decide_indecomposable,
    family_from_texts,
    minimize,
    recognize_basis,
)
from freesplit.words import Alphabet, total_cyclic_length

import helpers


ALPH2 = Alphabet(2)


def fam(*texts, rank=2):
    return family_from_texts(Alphabet(rank), texts)


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_01_edge_count_identity():
    rng = random.Random(1001)
    trials = 220
    for _ in range(trials):
        rank = rng.randint(1, 4)
        family = helpers.random_family(rng, rank, 4, 24)
        graph = build_whitehead_graph(Alphabet(rank), family)
        assert graph.total_edges() == total_cyclic_length(family)
    report(1, f"edge multiplicity == total cyclic length on {trials} random families")


def test_criterion_02_commutator_suite():
    family = fam("abAB")

    # word level: the 4-cycle, cross-checked against an independent recount
    graph = build_whitehead_graph(ALPH2, family)
    expected = {(1, 2): 1, (1, -2): 1, (-1, 2): 1, (-1, -2): 1}
    assert {(u, v): m for u, v, m in graph.edges()} == expected
    assert helpers.whitehead_pair_recount(family, 2) == {
        frozenset(k): m for k, m in expected.items()
    }
    assert graph.is_two_vertex_connected()[0]

    assert decide_indecomposable(ALPH2, family).decision == INDECOMPOSABLE

    ball3 = build_ball(ALPH2, 3)
    axes3 = enumerate_axes(family, ball3)
    assert lemma33_certificate(ball3, axes3).certified

    profile = class_count_profile(ALPH2, family, 4)
    assert profile == ((1, 1), (2, 1), (3, 1), (4, 1))
    for radius, count in profile:
        assert count == helpers.oracle_class_count(family, 2, radius)

    edge = ((), (1,))
    assert edge_arc_count(edge, axes3) == 2
    assert helpers.oracle_edge_count(family, 2, edge) == 2
    report(2, "abAB: 4-cycle, indecomposable, certified, all-ones profile,"
              " edge count 2, all oracle-checked")


def test_criterion_03_decomposable_suite():
    family = fam("a")
    verdict = decide_indecomposable(ALPH2, family)
    assert verdict.decision == DECOMPOSABLE
    assert verdict.bipartition == (frozenset({1}), frozenset({2}))

    profile = class_count_profile(ALPH2, family, 3)
    assert profile[0][1] >= 2
    assert all(count >= 2 for _, count in profile)
    assert profile[0][1] == helpers.oracle_class_count(family, 2, 1)

    ball = build_ball(ALPH2, 3)
    axes = enumerate_axes(family, ball)
    assert edge_arc_count(((), (1,)), axes) == 1
    assert helpers.oracle_edge_count(family, 2, ((), (1,))) == 1
    report(3, "a: decomposable {a}|{b}, profile >= 2 from radius 1, edge count 1")


def test_criterion_04_star_whitehead_equivalence():
    rng = random.Random(1004)
    started = time.monotonic()
    trials = 100
    for _ in range(trials):
        rank = rng.randint(2, 3)
        family = helpers.random_clean_family(rng, rank, 3, 8)
        alphabet = Alphabet(rank)
        ball = build_ball(alphabet, 2)
        axes = enumerate_axes(family, ball)
        star = star_graph(ball, axes, ())
        word = build_whitehead_graph(alphabet, family)
        assert star.edges() == word.edges(), family
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(4, f"star graph == Whitehead graph on {trials} families in {elapsed:.1f}s")


def test_criterion_05_double_round_trip():
    rng = random.Random(1005)
    trials = 100
    agreements = {"indecomposable": 0, "decomposable": 0}
    for _ in range(trials):
        rank = rng.randint(2, 3)
        family = helpers.random_family(rng, rank, 3, 8)
        alphabet = Alphabet(rank)
        word_level = decide_indecomposable(alphabet, family).decision
        group_level = one_ended(double(alphabet, family)).decision
        assert (word_level == INDECOMPOSABLE) == (group_level == ONE_ENDED), family
        agreements[word_level] += 1
    assert min(agreements.values()) >= 10
    report(5, f"indecomposable <=> one-ended double on {trials} families"
              f" ({agreements['indecomposable']} / {agreements['decomposable']} split)")


def test_criterion_06_edge_count_stability():
    rng = random.Random(1006)
    trials = 50
    small = build_ball(ALPH2, 3)
    large = build_ball(ALPH2, 5)
    for _ in range(trials):
        family = (helpers.random_cyclic_word(rng, 2, rng.randint(1, 6)),)
        counts_small = edge_counts(enumerate_axes(family, small))
        counts_large = edge_counts(enumerate_axes(family, large))
        for u, v in small.interior_edges():
            key = frozenset((u, v))
            assert counts_small.get(key, 0) == counts_large.get(key, 0), family
    report(6, f"interior edge counts at radius 3 == radius 5 on {trials} single words")


def test_criterion_07_certified_edges_covered_twice():
    rng = random.Random(1007)
    qualifying = 0
    for _ in range(60):
        rank = rng.randint(2, 3)
        family = helpers.random_clean_family(rng, rank, 2, 6)
        alphabet = Alphabet(rank)
        if decide_indecomposable(alphabet, family).decision != INDECOMPOSABLE:
            continue
        ball = build_ball(alphabet, 3)
        axes = enumerate_axes(family, ball)
        if not lemma33_certificate(ball, axes).certified:
            continue
        qualifying += 1
        counts = edge_counts(axes)
        for u, v in ball.interior_edges():
            assert counts.get(frozenset((u, v)), 0) >= 2, (family, u, v)
    assert qualifying >= 10
    report(7, f"certified systems cover every interior edge >= 2x"
              f" ({qualifying} qualifying systems)")


def test_criterion_08_minimization_contract():
    rng = random.Random(1008)
    for _ in range(80):
        rank = rng.randint(1, 3)
        family = helpers.random_family(rng, rank, 3, 10)
        initial = total_cyclic_length(family)
        minimized, trace = minimize(Alphabet(rank), family)
        assert len(trace.steps) <= initial
        for step in trace.steps:
            assert step.length_after < step.length_before
        graph = build_whitehead_graph(Alphabet(rank), minimized)
        if len(graph.components()) == 1:
            assert graph.is_two_vertex_connected()[0], family

    ok, witness = recognize_basis(ALPH2, fam("ab", "b"))
    assert ok
    candidates = fam("ab", "b")
    assert helpers.bounded_product_search(candidates, (1,), 4) is not None
    assert helpers.bounded_product_search(candidates, (2,), 4) is not None

    ok, _ = recognize_basis(ALPH2, fam("aa", "b"))
    assert not ok
    assert helpers.bounded_product_search(fam("aa", "b"), (1,), 6) is None
    report(8, "traces strictly decrease within the step bound, minimal graphs"
              " are cut-vertex-free, basis calls agree with product search")


def test_criterion_09_gluing_law():
    rng = random.Random(1009)
    instances = 0
    law_hits = 0
    while instances < 220:
        graph = helpers.random_multigraph(rng, 12)
        instances += 1
        assert set(graph.articulation_points()) == helpers.brute_articulation_points(
            graph
        )
        size1 = rng.randint(1, 3)
        size2 = rng.randint(1, 3)
        sub1 = helpers.grow_connected_subset(rng, graph, size1)
        sub2 = helpers.grow_connected_subset(rng, graph, size2, forbidden=sub1)
        if not sub1 or not sub2:
            continue
        collapsed1 = helpers.collapse(graph, sub1, "c1")
        collapsed2 = helpers.collapse(graph, sub2, "c2")
        if helpers.brute_is_two_vertex_connected(
            collapsed1
        ) and helpers.brute_is_two_vertex_connected(collapsed2):
            law_hits += 1
            assert helpers.brute_is_two_vertex_connected(graph)
            assert graph.is_two_vertex_connected()[0]
    assert law_hits >= 30
    report(9, f"gluing law held on {law_hits} qualifying collapses"
              f" out of {instances} random instances")


def test_criterion_10_surface_check():
    graph = double(ALPH2, fam("abAB"))
    assert one_ended(graph).decision == ONE_ENDED
    text = presentation(graph)
    generators, relations = text.strip("<> ").split("|")
    gen_list = [g.strip() for g in generators.split(",")]
    rel_list = [r.strip() for r in relations.split(",") if r.strip()]
    assert len(gen_list) == 4
    assert len(rel_list) == 1
    assert "=" in rel_list[0]
    report(10, f"double(F2, abAB) is one-ended; presentation {text!r}"
               " is one-relator on 4 generators")
