import random

import pytest

from freesplit.errors import InvalidInputError, ParseError, UnsupportedExportError
from freesplit.gog import (
    CyclicVertex,
    EdgeSpec,
    FreeVertex,
    GraphOfGroups,
    NOT_ONE_ENDED,
    ONE_ENDED,
    OpaqueVertex,
    double,
    one_ended,
    parse_gog,
    presentation,
    serialize_gog,
    trivial_vertices,
    validate,
)
from freesplit.whitehead import decide_indecomposable, family_from_texts
from freesplit.words import Alphabet, CyclicWord

import helpers


ALPH2 = Alphabet(2)


def fam(*texts, rank=2):
    return family_from_texts(Alphabet(rank), texts)


def two_vertex_graph(att1, att2, rank=2):
    return GraphOfGroups(
        {"v1": FreeVertex(rank), "v2": FreeVertex(rank)},
        [EdgeSpec("e1", ("v1", "v2"), (att1, att2))],
    )


class TestValidate:
    def test_valid_double_shape(self):
        g = two_vertex_graph(fam("abAB")[0], fam("abAB")[0])
        assert validate(g) == []

    def test_bad_attachment(self):
        g = two_vertex_graph(None, fam("abAB")[0])
        errors = validate(g)
        assert any("trivial edge group" in e for e in errors)

    def test_disconnected(self):
        g = GraphOfGroups(
            {"v1": FreeVertex(2), "v2": FreeVertex(2)},
            [],
        )
        errors = validate(g)
        assert any("not connected" in e for e in errors)

    def test_out_of_rank_attachment(self):
        word = fam("abc", rank=3)[0]
        g = two_vertex_graph(word, fam("abAB")[0])
        errors = validate(g)
        assert any("outside rank-2" in e for e in errors)

    def test_unknown_vertex_and_duplicate_edge_id(self):
        w = fam("ab")[0]
        g = GraphOfGroups(
            {"v1": FreeVertex(2)},
            [
                EdgeSpec("e1", ("v1", "vX"), (w, w)),
                EdgeSpec("e1", ("v1", "v1"), (w, w)),
            ],
        )
        errors = validate(g)
        assert any("unknown vertex vX" in e for e in errors)
        assert any("duplicate edge id" in e for e in errors)

    def test_zero_exponent(self):
        g = GraphOfGroups(
            {"v1": CyclicVertex(), "v2": CyclicVertex()},
            [EdgeSpec("e1", ("v1", "v2"), (0, 2))],
        )
        assert any("nonzero" in e for e in validate(g))


class TestTrivialVertices:
    def test_cyclic_exponent_one_listed(self):
        g = GraphOfGroups(
            {"v1": CyclicVertex(), "v2": FreeVertex(2)},
            [EdgeSpec("e1", ("v1", "v2"), (1, fam("ab")[0]))],
        )
        assert trivial_vertices(g) == ["v1"]

    def test_cyclic_exponent_three_not_listed(self):
        g = GraphOfGroups(
            {"v1": CyclicVertex(), "v2": FreeVertex(2)},
            [EdgeSpec("e1", ("v1", "v2"), (3, fam("ab")[0]))],
        )
        assert trivial_vertices(g) == []

    def test_free_rank2_never_trivial(self):
        g = two_vertex_graph(fam("a")[0], fam("a")[0])
        assert trivial_vertices(g) == []

    def test_free_rank1_single_letter_listed(self):
        g = GraphOfGroups(
            {"v1": FreeVertex(1), "v2": FreeVertex(2)},
            [EdgeSpec("e1", ("v1", "v2"), (fam("a", rank=1)[0], fam("ab")[0]))],
        )
        assert trivial_vertices(g) == ["v1"]

    def test_loop_vertex_not_degree_one(self):
        w = fam("a", rank=1)[0]
        g = GraphOfGroups(
            {"v1": FreeVertex(1)},
            [EdgeSpec("e1", ("v1", "v1"), (w, w))],
        )
        assert trivial_vertices(g) == []


class TestOneEnded:
    def test_surface_double(self):
        verdict = one_ended(double(ALPH2, fam("abAB")))
        assert verdict.decision == ONE_ENDED

    def test_primitive_double(self):
        verdict = one_ended(double(ALPH2, fam("a")))
        assert verdict.decision == NOT_ONE_ENDED
        assert verdict.witness_vertex == "v1"
        assert verdict.witness.bipartition == (frozenset({1}), frozenset({2}))

    def test_opaque_vertex_vacuous(self):
        g = GraphOfGroups({"v1": OpaqueVertex("surface")}, [])
        assert one_ended(g).decision == ONE_ENDED

    def test_cyclic_loop_one_ended(self):
        g = GraphOfGroups(
            {"v1": CyclicVertex()}, [EdgeSpec("e1", ("v1", "v1"), (2, 3))]
        )
        assert one_ended(g).decision == ONE_ENDED

    def test_free_vertex_without_edges_splits(self):
        g = GraphOfGroups({"v1": FreeVertex(2)}, [])
        verdict = one_ended(g)
        assert verdict.decision == NOT_ONE_ENDED
        assert verdict.witness_vertex == "v1"
        assert verdict.witness is None
        assert verdict.reason == "free vertex v1 has no incident edges and splits freely"
        # a lone cyclic vertex is Z, which has two ends
        verdict = one_ended(GraphOfGroups({"v": CyclicVertex()}, []))
        assert verdict.decision == NOT_ONE_ENDED
        assert verdict.witness_vertex == "v" and verdict.witness is None
        assert verdict.reason == "cyclic vertex v has no incident edges and splits freely"
        # Z^2, the Klein bottle group, and <a, b | a^2 = b^2> are one-ended
        for graph in (
            GraphOfGroups({"v": CyclicVertex()}, [EdgeSpec("e", ("v", "v"), (1, 1))]),
            GraphOfGroups({"v": CyclicVertex()}, [EdgeSpec("e", ("v", "v"), (1, -1))]),
            GraphOfGroups(
                {"u": CyclicVertex(), "v": CyclicVertex()},
                [EdgeSpec("e", ("u", "v"), (2, 2))],
            ),
        ):
            assert one_ended(graph).decision == ONE_ENDED, graph

    def test_trivial_vertex_precondition(self):
        g = GraphOfGroups(
            {"v1": CyclicVertex(), "v2": FreeVertex(2)},
            [EdgeSpec("e1", ("v1", "v2"), (1, fam("abAB")[0]))],
        )
        with pytest.raises(InvalidInputError) as info:
            one_ended(g)
        assert "trivial" in str(info.value)

    def test_invalid_graph_rejected(self):
        g = GraphOfGroups({"v1": FreeVertex(2), "v2": FreeVertex(2)}, [])
        with pytest.raises(InvalidInputError):
            one_ended(g)

    def test_loop_contributes_both_words(self):
        # loop words a and b at a rank-2 vertex: family {a, b} splits
        g = GraphOfGroups(
            {"v1": FreeVertex(2)},
            [EdgeSpec("e1", ("v1", "v1"), (fam("a")[0], fam("b")[0]))],
        )
        verdict = one_ended(g)
        assert verdict.decision == NOT_ONE_ENDED
        # with the commutator added the family becomes indecomposable
        g2 = GraphOfGroups(
            {"v1": FreeVertex(2)},
            [
                EdgeSpec("e1", ("v1", "v1"), (fam("a")[0], fam("b")[0])),
                EdgeSpec("e2", ("v1", "v1"), (fam("abAB")[0], fam("abAB")[0])),
            ],
        )
        assert one_ended(g2).decision == ONE_ENDED

    def test_witness_is_sound(self):
        rng = random.Random(139)
        found = 0
        for _ in range(20):
            family = helpers.random_family(rng, 2, 2, 6)
            verdict = one_ended(double(ALPH2, family))
            if verdict.decision == ONE_ENDED:
                continue
            found += 1
            witness = verdict.witness
            left, right = witness.bipartition
            for w in witness.minimized:
                support = w.generator_support()
                assert support <= left or support <= right
        assert found >= 5

    def test_relabeling_invariance(self):
        family = fam("ab", "b")
        g = double(ALPH2, family)
        renamed = GraphOfGroups(
            {"west": g.vertices["v1"], "east": g.vertices["v2"]},
            [
                EdgeSpec(f"edge-{e.id}", ("west", "east"), e.attachments)
                for e in g.edges
            ],
        )
        assert one_ended(g).decision == one_ended(renamed).decision

    def test_invariant_under_remarking_one_vertex(self):
        # applying an automorphism to the attachments at a single vertex
        # changes the marking, not the fundamental group's end count
        from freesplit.words import MultiplierAutomorphism, apply_automorphism

        rng = random.Random(157)
        letters = [s * i for i in range(1, 3) for s in (1, -1)]
        for _ in range(15):
            family = helpers.random_family(rng, 2, 2, 6)
            g = double(ALPH2, family)
            x = rng.choice(letters)
            side = {x} | {y for y in letters if y not in (x, -x) and rng.random() < 0.5}
            phi = MultiplierAutomorphism(2, x, frozenset(side))
            remarked = GraphOfGroups(
                dict(g.vertices),
                [
                    EdgeSpec(
                        e.id,
                        e.endpoints,
                        (apply_automorphism(phi, e.attachments[0]), e.attachments[1]),
                    )
                    for e in g.edges
                ],
            )
            assert one_ended(g).decision == one_ended(remarked).decision


class TestDouble:
    def test_commutator_amalgam(self):
        g = double(ALPH2, fam("abAB"))
        assert sorted(g.vertices) == ["v1", "v2"]
        assert len(g.edges) == 1
        assert g.edges[0].attachments[0] == g.edges[0].attachments[1]

    def test_two_classes_two_edges(self):
        assert len(double(ALPH2, fam("a", "b")).edges) == 2

    def test_conjugates_identified(self):
        assert len(double(ALPH2, fam("a", "baB")).edges) == 1

    def test_inverses_identified(self):
        assert len(double(ALPH2, fam("ab", "BA")).edges) == 1

    def test_always_validates_with_no_trivial_vertices(self):
        rng = random.Random(149)
        for _ in range(30):
            rank = rng.randint(2, 3)
            family = helpers.random_family(rng, rank, 3, 8)
            g = double(Alphabet(rank), family)
            assert validate(g) == []
            assert trivial_vertices(g) == []

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidInputError):
            double(ALPH2, ())

    def test_round_trip_with_indecomposability(self):
        rng = random.Random(151)
        for _ in range(30):
            rank = rng.randint(2, 3)
            family = helpers.random_family(rng, rank, 2, 6)
            word_level = decide_indecomposable(Alphabet(rank), family)
            group_level = one_ended(double(Alphabet(rank), family))
            assert (word_level.decision == "indecomposable") == (
                group_level.decision == ONE_ENDED
            )


class TestPresentation:
    def test_surface_presentation(self):
        text = presentation(double(ALPH2, fam("abAB")))
        assert text == "< a, b, c, d | abAB = cdCD >"

    def test_hnn_presentation(self):
        g = GraphOfGroups(
            {"v1": FreeVertex(2)},
            [EdgeSpec("e1", ("v1", "v1"), (fam("a")[0], fam("b")[0]))],
        )
        assert presentation(g) == "< a, b, t | t a t^-1 = b >"

    def test_baumslag_solitar_presentation(self):
        g = GraphOfGroups(
            {"v1": CyclicVertex()}, [EdgeSpec("e1", ("v1", "v1"), (2, 3))]
        )
        assert presentation(g) == "< a, t | t aa t^-1 = aaa >"

    def test_opaque_rejected(self):
        g = GraphOfGroups({"v1": OpaqueVertex()}, [])
        with pytest.raises(UnsupportedExportError):
            presentation(g)

    def test_multiple_stable_letters_numbered(self):
        w = fam("abAB")[0]
        g = GraphOfGroups(
            {"v1": FreeVertex(2)},
            [
                EdgeSpec("e1", ("v1", "v1"), (w, w)),
                EdgeSpec("e2", ("v1", "v1"), (fam("aabb")[0], fam("aabb")[0])),
            ],
        )
        text = presentation(g)
        assert "t1" in text and "t2" in text


class TestFileFormat:
    def test_round_trip(self):
        g = double(ALPH2, fam("abAB", "ab"))
        text = serialize_gog(g)
        back = parse_gog(text)
        assert serialize_gog(back) == text
        assert one_ended(back).decision == one_ended(g).decision

    def test_comments_and_blank_lines(self):
        text = """
        # a surface group double
        vertex v1 free 2
        vertex v2 free 2

        edge e1 v1 v2 abAB abAB  # genus two
        """
        g = parse_gog(text)
        assert validate(g) == []

    def test_numeric_attachments_with_commas(self):
        text = "vertex v1 free 2\nvertex v2 free 2\nedge e1 v1 v2 1,2,-1,-2 abAB\n"
        g = parse_gog(text)
        assert g.edges[0].attachments[0] == fam("abAB")[0]

    def test_cyclic_and_opaque_attachments(self):
        text = (
            "vertex v1 cyclic\nvertex v2 opaque torus\n"
            "edge e1 v1 v2 3 -\n"
        )
        g = parse_gog(text)
        assert g.edges[0].attachments == (3, None)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as info:
            parse_gog("vertex v1 free 2\nedge e1 v1 v9 ab ab\n")
        assert "line 2" in str(info.value)

        with pytest.raises(ParseError) as info:
            parse_gog("vertex v1 free 0\n")
        assert "line 1" in str(info.value)

        with pytest.raises(ParseError) as info:
            parse_gog("vertex v1 free 2\nvertex v1 cyclic\n")
        assert "duplicate" in str(info.value)

        with pytest.raises(ParseError) as info:
            parse_gog("vertex v1 free 2\nvertex v2 free 2\nedge e1 v1 v2 aA ab\n")
        assert "trivial edge group" in str(info.value)

        with pytest.raises(ParseError) as info:
            parse_gog("widget v1\n")
        assert "unknown directive" in str(info.value)

        with pytest.raises(ParseError):
            parse_gog("")

    def test_attachments_auto_cyclically_reduced(self):
        text = "vertex v1 free 2\nvertex v2 free 2\nedge e1 v1 v2 baB abAB\n"
        g = parse_gog(text)
        assert g.edges[0].attachments[0] == fam("a")[0]
