import random

import pytest

from freesplit.arcs import (
    analyze_subtree,
    class_count_profile,
    edge_arc_count,
    edge_counts,
    enumerate_axes,
    lemma33_certificate,
    star_graph,
)
from freesplit.errors import InvalidInputError, ResourceCapError
from freesplit.tree import build_ball, edge_label, predicted_vertex_count
from freesplit.whitehead import (
    build_whitehead_graph,
    decide_indecomposable,
    family_from_texts,
)
from freesplit.words import Alphabet, CyclicWord, invert_word, total_cyclic_length

import helpers


ALPH2 = Alphabet(2)
ALPH1 = Alphabet(1)


def fam(*texts, rank=2):
    return family_from_texts(Alphabet(rank), texts)


def origin_star(ball):
    return [()] + [(x,) for x in ball.alphabet.letters()]


class TestBall:
    def test_rank2_radius1(self):
        ball = build_ball(ALPH2, 1)
        assert ball.vertex_count() == 5 and ball.edge_count() == 4

    def test_rank2_radius2(self):
        ball = build_ball(ALPH2, 2)
        assert ball.vertex_count() == 17 and ball.edge_count() == 16

    def test_rank1_is_a_line(self):
        ball = build_ball(ALPH1, 3)
        assert ball.vertex_count() == 7
        assert all(len(ball.neighbors(v)) <= 2 for v in ball.vertices)

    def test_closed_form(self):
        for rank in (1, 2, 3):
            for radius in range(0, 4):
                ball = build_ball(Alphabet(rank), radius)
                assert ball.vertex_count() == predicted_vertex_count(rank, radius)
                assert ball.edge_count() == ball.vertex_count() - 1

    def test_cap_refusal(self):
        with pytest.raises(ResourceCapError) as info:
            build_ball(ALPH2, 20)
        assert info.value.predicted == predicted_vertex_count(2, 20)

    def test_edge_label(self):
        assert edge_label((), (1,)) == 1
        assert edge_label((1,), ()) == -1
        with pytest.raises(InvalidInputError):
            edge_label((1,), (2,))


class TestEnumerateAxes:
    def test_single_letter_radius2(self):
        # one axis per coset with a representative of length <= 2 that
        # does not end in a or a^-1
        axes = enumerate_axes(fam("a"), build_ball(ALPH2, 2))
        assert len(axes) == 9
        assert len(axes) == helpers.oracle_axis_count(fam("a"), 2, 2)

    def test_commutator_through_origin(self):
        # four distinct lines pass the origin, one per rotation
        axes = enumerate_axes(fam("abAB"), build_ball(ALPH2, 0))
        assert len(axes) == 4
        assert len(axes) == helpers.oracle_axis_count(fam("abAB"), 2, 0)
        assert all(a.base == () for a in axes)

    def test_rank1_whole_line(self):
        axes = enumerate_axes(fam("a", rank=1), build_ball(ALPH1, 4))
        assert len(axes) == 1

    def test_axis_shape_invariants(self):
        rng = random.Random(73)
        for _ in range(25):
            rank = rng.randint(1, 3)
            family = helpers.random_clean_family(rng, rank, 2, 6)
            ball = build_ball(Alphabet(rank), 3)
            for axis in enumerate_axes(family, ball):
                # base is the nearest trace vertex to the origin and unique
                lengths = [len(v) for v in axis.trace]
                assert min(lengths) == len(axis.base)
                assert lengths.count(len(axis.base)) == 1
                # trace is a path of tree edges inside the ball
                for u, v in zip(axis.trace, axis.trace[1:]):
                    edge_label(u, v)
                    assert u in ball and v in ball
                # period is a rotation of a family word or of its inverse
                rotations = set()
                for w in family:
                    rotations |= set(w.rotations())
                    rotations |= set(w.inverse().rotations())
                assert axis.period in rotations
                # period direction is the lexicographically smaller one
                assert axis.period == min(
                    axis.period, invert_word(axis.period),
                    key=lambda p: [(abs(x), 0 if x > 0 else 1) for x in p],
                )

    def test_oracle_agreement_random(self):
        rng = random.Random(79)
        for _ in range(15):
            rank = rng.randint(2, 3)
            family = helpers.random_clean_family(rng, rank, 2, 5)
            radius = rng.randint(1, 2)
            ball = build_ball(Alphabet(rank), radius)
            assert len(enumerate_axes(family, ball)) == helpers.oracle_axis_count(
                family, rank, radius
            )

    def test_rejects_bad_family(self):
        with pytest.raises(InvalidInputError):
            enumerate_axes([(1,)], build_ball(ALPH2, 1))


class TestEdgeCounts:
    def test_spec_examples(self):
        ball = build_ball(ALPH2, 3)
        axes_a = enumerate_axes(fam("a"), ball)
        axes_c = enumerate_axes(fam("abAB"), ball)
        assert edge_arc_count(((), (1,)), axes_a) == 1
        assert edge_arc_count(((), (1,)), axes_c) == 2
        assert edge_arc_count(((), (2,)), axes_a) == 0

    def test_matches_oracle(self):
        rng = random.Random(83)
        ball = build_ball(ALPH2, 2)
        for _ in range(10):
            family = helpers.random_clean_family(rng, 2, 2, 5)
            axes = enumerate_axes(family, ball)
            for edge in [((), (1,)), ((), (-2,)), ((1,), (1, 2))]:
                assert edge_arc_count(edge, axes) == helpers.oracle_edge_count(
                    family, 2, edge
                )

    def test_bulk_counts_match_single(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("abAB"), ball)
        counts = edge_counts(axes)
        for u, v in ball.edges():
            assert counts.get(frozenset((u, v)), 0) == edge_arc_count((u, v), axes)

    def test_stability_under_radius_growth(self):
        # every axis through an edge is already found at the small radius
        rng = random.Random(89)
        for _ in range(8):
            family = helpers.random_clean_family(rng, 2, 1, 5)
            small = build_ball(ALPH2, 3)
            large = build_ball(ALPH2, 5)
            counts_small = edge_counts(enumerate_axes(family, small))
            counts_large = edge_counts(enumerate_axes(family, large))
            for u, v in small.interior_edges():
                key = frozenset((u, v))
                assert counts_small.get(key, 0) == counts_large.get(key, 0)


class TestStarGraphs:
    def test_star_equals_whitehead_graph(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("abAB"), ball)
        star = star_graph(ball, axes, ())
        word = build_whitehead_graph(ALPH2, fam("abAB"))
        assert star.edges() == word.edges()

    def test_star_random_families(self):
        rng = random.Random(97)
        for _ in range(30):
            rank = rng.randint(2, 3)
            family = helpers.random_clean_family(rng, rank, 3, 8)
            alphabet = Alphabet(rank)
            ball = build_ball(alphabet, 2)
            axes = enumerate_axes(family, ball)
            star = star_graph(ball, axes, ())
            word = build_whitehead_graph(alphabet, family)
            assert star.edges() == word.edges(), family

    def test_star_requires_interior_center(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("a"), ball)
        with pytest.raises(InvalidInputError):
            star_graph(ball, axes, (1, 1))


class TestCertificate:
    def test_commutator_certified(self):
        ball = build_ball(ALPH2, 3)
        cert = lemma33_certificate(ball, enumerate_axes(fam("abAB"), ball))
        assert cert.certified and cert.witness is None

    def test_single_letter_not_certified_at_origin(self):
        ball = build_ball(ALPH2, 3)
        cert = lemma33_certificate(ball, enumerate_axes(fam("a"), ball))
        assert not cert.certified and cert.witness == ()

    def test_rank1_certified_by_single_edge_convention(self):
        ball = build_ball(ALPH1, 3)
        cert = lemma33_certificate(ball, enumerate_axes(fam("a", rank=1), ball))
        assert cert.certified

    def test_radius_too_small(self):
        ball = build_ball(ALPH2, 1)
        with pytest.raises(InvalidInputError):
            lemma33_certificate(ball, enumerate_axes(fam("a"), ball))

    def test_certified_implies_interior_edges_covered_twice(self):
        rng = random.Random(103)
        hits = 0
        for _ in range(25):
            rank = rng.randint(2, 3)
            family = helpers.random_clean_family(rng, rank, 2, 6)
            ball = build_ball(Alphabet(rank), 3)
            axes = enumerate_axes(family, ball)
            if not lemma33_certificate(ball, axes).certified:
                continue
            hits += 1
            counts = edge_counts(axes)
            for u, v in ball.interior_edges():
                assert counts.get(frozenset((u, v)), 0) >= 2
        assert hits >= 3


class TestAnalyzeSubtree:
    def test_commutator_star_analysis(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("abAB"), ball)
        analysis = analyze_subtree(ball, origin_star(ball), axes)
        # G(S) of the origin star is the 4-cycle on the neighbour vertices
        assert analysis.gs_graph.total_edges() == 4
        assert analysis.gs_graph.is_two_vertex_connected()[0]
        assert analysis.classes == (
            frozenset({(1,), (-1,), (2,), (-2,)}),
        )
        assert analysis.carriers == frozenset({(1,), (-1,), (2,), (-2,)})

    def test_single_letter_star_analysis(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("a"), ball)
        analysis = analyze_subtree(ball, origin_star(ball), axes)
        assert set(analysis.classes) == {
            frozenset({(1,), (-1,)}),
            frozenset({(2,)}),
            frozenset({(-2,)}),
        }

    def test_single_vertex_subtree(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("abAB"), ball)
        analysis = analyze_subtree(ball, [()], axes)
        assert analysis.classes == (frozenset({()}),)
        assert analysis.intervals == ()
        assert analysis.gs_graph.vertices == ()

    def test_interval_endpoints_are_carriers(self):
        rng = random.Random(107)
        ball = build_ball(ALPH2, 3)
        for _ in range(10):
            family = helpers.random_clean_family(rng, 2, 2, 6)
            axes = enumerate_axes(family, ball)
            subtree = [(), (1,), (2,), (1, 2)]
            analysis = analyze_subtree(ball, subtree, axes)
            for interval in analysis.intervals:
                p, q = interval.endpoints
                assert p in analysis.carriers and q in analysis.carriers
                assert p != q
                # the interval path really is the trace restricted to S
                assert set(interval.path) <= analysis.subtree
                assert len(interval.path) >= 2

    def test_classes_refine_gs_components(self):
        # the two views of the subpartition: gluing-graph components are
        # exactly the non-singleton classes restricted to endpoints
        rng = random.Random(109)
        ball = build_ball(ALPH2, 3)
        for _ in range(10):
            family = helpers.random_clean_family(rng, 2, 2, 6)
            axes = enumerate_axes(family, ball)
            analysis = analyze_subtree(ball, origin_star(ball), axes)
            gs_components = set(analysis.gs_graph.components())
            touched = {c for c in analysis.classes if len(c) > 1}
            untouched = {c for c in analysis.classes if len(c) == 1}
            assert gs_components == touched | {
                c for c in untouched if set(c) <= set(analysis.gs_graph.vertices)
            }

    def test_rejects_disconnected_subtree(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("a"), ball)
        with pytest.raises(InvalidInputError):
            analyze_subtree(ball, [(1,), (2,)], axes)

    def test_rejects_boundary_subtree(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("a"), ball)
        with pytest.raises(InvalidInputError):
            analyze_subtree(ball, [(), (1,), (1, 1)], axes)


class TestClassCountProfile:
    def test_commutator_all_ones(self):
        assert class_count_profile(ALPH2, fam("abAB"), 4) == (
            (1, 1), (2, 1), (3, 1), (4, 1),
        )

    def test_single_letter_splits_immediately(self):
        profile = class_count_profile(ALPH2, fam("a"), 3)
        assert all(count >= 2 for _, count in profile)
        assert profile[0] == (1, 3)

    def test_rank1_all_ones(self):
        assert class_count_profile(ALPH1, fam("a", rank=1), 3) == (
            (1, 1), (2, 1), (3, 1),
        )

    def test_matches_oracle(self):
        rng = random.Random(113)
        for _ in range(8):
            family = helpers.random_clean_family(rng, 2, 2, 5)
            profile = class_count_profile(ALPH2, family, 3)
            for radius, count in profile:
                assert count == helpers.oracle_class_count(family, 2, radius)

    def test_monotone_in_radius(self):
        rng = random.Random(127)
        for _ in range(12):
            rank = rng.randint(1, 3)
            family = helpers.random_family(rng, rank, 2, 6)
            profile = class_count_profile(Alphabet(rank), family, 3)
            counts = [c for _, c in profile]
            assert counts == sorted(counts)

    def test_requires_positive_radius(self):
        with pytest.raises(InvalidInputError):
            class_count_profile(ALPH2, fam("a"), 0)


class TestDecisionCoherence:
    def test_certificate_never_contradicts_profile(self):
        rng = random.Random(131)
        for _ in range(20):
            rank = rng.randint(2, 3)
            family = helpers.random_clean_family(rng, rank, 2, 6)
            alphabet = Alphabet(rank)
            ball = build_ball(alphabet, 3)
            axes = enumerate_axes(family, ball)
            if lemma33_certificate(ball, axes).certified:
                profile = class_count_profile(alphabet, family, 3)
                assert all(count == 1 for _, count in profile), family

    def test_decomposable_reaches_two_classes(self):
        rng = random.Random(137)
        checked = 0
        for _ in range(30):
            family = helpers.random_family(rng, 2, 2, 6)
            verdict = decide_indecomposable(ALPH2, family)
            if verdict.decision != "decomposable":
                continue
            checked += 1
            bound = total_cyclic_length(family)
            found = False
            for radius in range(1, bound + 1):
                profile = class_count_profile(ALPH2, family, radius)
                if profile[-1][1] >= 2:
                    found = True
                    break
            assert found, family
        assert checked >= 8
