import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from freesplit import gog
from freesplit.errors import (
    InvalidInputError,
    ParseError,
    ResourceCapError,
    UnsupportedExportError,
)
from freesplit.gog import (
    CyclicVertex,
    EdgeSpec,
    FreeVertex,
    GraphOfGroups,
    NOT_ONE_ENDED,
    ONE_ENDED,
    OpaqueVertex,
    OneEndednessVerdict,
    double,
    incidence,
    one_ended,
    parse_gog,
    presentation,
    serialize_gog,
    trivial_vertices,
    validate,
)
from freesplit.whitehead import DECOMPOSABLE, decide_indecomposable, family_from_texts
from freesplit.words import (
    Alphabet,
    CyclicWord,
    MultiplierAutomorphism,
    cyclic_reduce,
    format_letter,
    format_word,
)

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

    def test_unreached_vertices_listed(self):
        w = fam("ab")[0]
        g = GraphOfGroups(
            {"v3": FreeVertex(2), "v1": FreeVertex(2), "v2": FreeVertex(2), "v4": CyclicVertex()},
            [EdgeSpec("e1", ("v2", "v3"), (w, w)), EdgeSpec("e2", ("v1", "v1"), (w, w))],
        )
        assert validate(g) == ["graph is not connected (unreached: v2, v3, v4)"]

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

    def test_split_verdicts_compare_by_value(self):
        g = double(ALPH2, fam("ab"))
        first, second = one_ended(g), one_ended(g)
        assert first.decision == NOT_ONE_ENDED
        assert first.witness.graph is not second.witness.graph
        assert first == second and hash(first) == hash(second)

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

    def test_cut_vertex_pretest_skips_two_connected_vertices(self, monkeypatch):
        # p, q and s have 2-connected Whitehead graphs, so only r and w are decided
        calls = []

        def recording(alphabet, family):
            calls.append((alphabet.rank, [format_word(w.letters) for w in family]))
            return decide_indecomposable(alphabet, family)

        monkeypatch.setattr("freesplit.gog.decide_indecomposable", recording)
        text = (Path(__file__).resolve().parent / "golden" / "lemma.gog").read_text()
        verdict = one_ended(parse_gog(text))
        assert calls == [(2, ["aaabab"]), (3, ["abAB", "ab"])]
        assert (verdict.decision, verdict.witness_vertex) == (NOT_ONE_ENDED, "w")

    def test_pretest_searches_each_distinct_graph_once(self, monkeypatch):
        # nine free vertices, three Whitehead graphs: abAB and its inverse's
        # rotation BAba share one, aabb has another, and aaabab's has a cut
        # vertex, so its two vertices fail the test and are decided
        searches = []

        def counting(rows):
            searches.append(tuple(map(frozenset, rows)))
            return search(rows)

        search = gog._search
        monkeypatch.setattr(gog, "_search", counting)
        words = ["abAB", "abAB", "BAba", "aabb", "abAB", "aaabab", "aabb", "BAba", "aaabab"]
        text = "vertex h cyclic\n" + "".join(
            f"vertex v{i} free 2\nedge e{i} v{i} h {w} {i + 1}\n" for i, w in enumerate(words))
        g = parse_gog(text)
        verdict = one_ended(g)
        assert len(searches) == len(set(searches)) == 3
        assert verdict_key(verdict) == verdict_key(reference_one_ended(g))
        assert verdict.decision == ONE_ENDED
        # a decomposable vertex after them all still finds its graph searched once
        g.vertices["w"] = FreeVertex(2)
        g.edges.append(EdgeSpec("f", ("w", "h"), (fam("ab")[0], 5)))
        searches.clear()
        verdict = one_ended(g)
        assert len(searches) == len(set(searches)) == 4
        assert verdict_key(verdict) == verdict_key(reference_one_ended(g))
        assert verdict.witness_vertex == "w"

    def test_rank_above_length_builds_no_rows(self):
        # the rank-10^9 vertex leaves a generator unused, so it fails the
        # pretest before any row and its decision refuses the rank
        g = GraphOfGroups(
            {"v": FreeVertex(10**9), "w": CyclicVertex()},
            [EdgeSpec("e", ("v", "w"), (fam("ab", rank=10**9)[0], 2))],
        )
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                one_ended(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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
        rng = random.Random(157)
        letters = [s * i for i in range(1, 3) for s in (1, -1)]
        for _ in range(15):
            family = helpers.random_family(rng, 2, 2, 6)
            g = double(ALPH2, family)
            x = rng.choice(letters)
            side = {x} | {y for y in letters if y not in (x, -x) and rng.random() < 0.5}
            phi = MultiplierAutomorphism(2, x, frozenset(side)).to_map()
            remarked = GraphOfGroups(
                dict(g.vertices),
                [
                    EdgeSpec(
                        e.id,
                        e.endpoints,
                        (phi.apply_cyclic(e.attachments[0]), e.attachments[1]),
                    )
                    for e in g.edges
                ],
            )
            assert one_ended(g).decision == one_ended(remarked).decision


def reference_one_ended(g):
    """One-endedness by running the full decision at every free vertex."""
    errors = validate(g)
    if errors:
        raise InvalidInputError("; ".join(errors))
    trivial = trivial_vertices(g)
    if trivial:
        raise InvalidInputError(f"graph has trivial vertices: {', '.join(trivial)}")
    incident = incidence(g)
    for vid in sorted(g.vertices):
        group = g.vertices[vid]
        if isinstance(group, OpaqueVertex):
            continue
        if not g.edges:
            kind = "free" if isinstance(group, FreeVertex) else "cyclic"
            return OneEndednessVerdict(
                NOT_ONE_ENDED,
                witness_vertex=vid,
                reason=f"{kind} vertex {vid} has no incident edges and splits freely",
            )
        if isinstance(group, CyclicVertex):
            continue
        words = [e.attachments[slot] for e, slot in incident[vid]]
        verdict = decide_indecomposable(Alphabet(group.rank), words)
        if verdict.decision == DECOMPOSABLE:
            return OneEndednessVerdict(
                NOT_ONE_ENDED,
                witness_vertex=vid,
                witness=verdict,
                reason=f"incident family of {vid} is decomposable",
            )
    return OneEndednessVerdict(ONE_ENDED)


@st.composite
def mixed_graphs(draw):
    """Connected graphs of free (rank 1-3), cyclic and opaque vertices, with
    shuffled ids, loops and parallel edges."""
    n = draw(st.integers(min_value=1, max_value=6))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    kinds = draw(st.lists(
        st.sampled_from(["free1", "free2", "free2", "free3", "cyclic", "opaque"]),
        min_size=n, max_size=n,
    ))
    groups = [
        FreeVertex(int(k[-1])) if k.startswith("free")
        else CyclicVertex() if k == "cyclic" else OpaqueVertex()
        for k in kinds
    ]
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))

    def attachment(group):
        if isinstance(group, FreeVertex):
            return helpers.random_cyclic_word(rng, group.rank, rng.randint(1, 8))
        if isinstance(group, CyclicVertex):
            return rng.choice([-3, -2, -1, 1, 2, 3])
        return None

    attachments = [[attachment(groups[u]), attachment(groups[v])] for u, v in pairs]
    for vertex_index, group in enumerate(groups):
        if not isinstance(group, FreeVertex) or rng.random() < 0.5:
            continue
        # Remarking a vertex keeps its verdict but often gives its family a
        # cut vertex, so that only a descent decides it.
        for _ in range(2):
            move = helpers.random_move(rng, group.rank).to_map()
            for pair, atts in zip(pairs, attachments):
                for slot in (0, 1):
                    if pair[slot] == vertex_index:
                        atts[slot] = move.apply_cyclic(atts[slot])
    edges = [
        EdgeSpec(f"e{k}", (names[u], names[v]), tuple(atts))
        for k, ((u, v), atts) in enumerate(zip(pairs, attachments))
    ]
    return GraphOfGroups(dict(zip(names, groups)), edges)


def verdict_key(verdict):
    witness = verdict.witness
    return (
        verdict.decision,
        verdict.witness_vertex,
        verdict.reason,
        None if witness is None else (witness.bipartition, witness.minimized),
    )


class TestOneEndedAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(mixed_graphs())
    def test_matches_deciding_every_free_vertex(self, g):
        try:
            expected = verdict_key(reference_one_ended(g))
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError) as info:
                one_ended(g)
            assert str(info.value) == str(exc)
            return
        assert verdict_key(one_ended(g)) == expected


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


def reference_sweep(g):
    """Tree and non-tree edges by repeated sweeps over the edges in id order."""
    sorted_edges = sorted(g.edges, key=lambda e: e.id)
    tree_edges = []
    reached = {min(g.vertices)}
    remaining = list(sorted_edges)
    grew = True
    while grew:
        grew = False
        for e in list(remaining):
            u, v = e.endpoints
            if u == v:
                continue
            if (u in reached) != (v in reached):
                reached |= {u, v}
                tree_edges.append(e)
                remaining.remove(e)
                grew = True
    return tree_edges, [e for e in sorted_edges if e not in tree_edges]


def reference_presentation(g):
    """The presentation of a graph of cyclic vertices with positive exponents."""
    names = dict(zip(sorted(g.vertices), "abcdefghijklmnopqrsuvwxyz"))
    tree_edges, non_tree = reference_sweep(g)
    stable = {e.id: "t" if len(non_tree) == 1 else f"t{i}" for i, e in enumerate(non_tree, 1)}
    side = lambda e, slot: names[e.endpoints[slot]] * e.attachments[slot]
    relations = [f"{side(e, 0)} = {side(e, 1)}" for e in tree_edges]
    relations += [f"{stable[e.id]} {side(e, 0)} {stable[e.id]}^-1 = {side(e, 1)}" for e in non_tree]
    generators = [names[v] for v in sorted(g.vertices)] + [stable[e.id] for e in non_tree]
    return f"< {', '.join(generators)} | {', '.join(relations)} >"


@st.composite
def connected_cyclic_graphs(draw):
    """Connected graphs of cyclic vertices: shuffled vertex and edge ids, loops,
    parallel edges, and a distinct exponent pair per edge."""
    n = draw(st.integers(min_value=2, max_value=8))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    ids = draw(st.permutations([f"e{i:02d}" for i in range(len(pairs))]))
    edges = []
    for k, (u, v) in enumerate(pairs):
        if draw(st.booleans()):
            u, v = v, u
        edges.append(EdgeSpec(ids[k], (names[u], names[v]), (k + 1, k + 2)))
    return GraphOfGroups({name: CyclicVertex() for name in names}, edges)


class TestPresentation:
    @settings(max_examples=300)
    @given(connected_cyclic_graphs())
    def test_matches_repeated_sweep_reference(self, g):
        assert presentation(g) == reference_presentation(g)

    def test_surface_presentation(self):
        text = presentation(double(ALPH2, fam("abAB")))
        assert text == "< a, b, c, d | abAB = cdCD >"
        # a lone vertex has no relations
        assert presentation(GraphOfGroups({"v1": FreeVertex(1)}, [])) == "< a | >"

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

    def test_relation_letters_capped(self):
        # 2,000,000 letters are rendered; one more is refused before any is
        g = GraphOfGroups(
            {"u": CyclicVertex(), "w": FreeVertex(1)},
            [EdgeSpec("e", ("u", "w"), (1_999_999, fam("a", rank=1)[0]))],
        )
        assert len(presentation(g)) == len("< a, b | ") + 1_999_999 + len(" = b >")
        g.edges[0] = EdgeSpec("e", ("u", "w"), (-3_000_000_000, fam("a", rank=1)[0]))
        with pytest.raises(ResourceCapError) as info:
            presentation(g)
        assert str(info.value) == "presentation has 3000000001 relation letters (cap 2000000)"
        assert (info.value.predicted, info.value.cap) == (3_000_000_001, 2_000_000)


class TestFileFormat:
    def test_round_trip(self):
        g = double(ALPH2, fam("abAB", "ab"))
        text = serialize_gog(g)
        back = parse_gog(text)
        assert serialize_gog(back) == text
        assert one_ended(back).decision == one_ended(g).decision

    @staticmethod
    def opaque_edge(vid="v", eid="e", label="", tag="t"):
        """A valid graph: an opaque vertex joined to a cyclic one."""
        return GraphOfGroups({vid: OpaqueVertex(label), "w": CyclicVertex()},
                             [EdgeSpec(eid, (vid, "w"), (tag, 1))])

    @pytest.mark.parametrize("field, value", [
        ("vid", ""), ("vid", "v 1"), ("vid", "v#1"),
        ("eid", ""), ("eid", "e\t1"), ("eid", "#e"),
        ("label", "a b"), ("label", "#c"), ("label", "x\u2028y"),
        ("tag", ""), ("tag", "a#b"), ("tag", "a b"), ("tag", "-"),
    ])
    def test_unwritable_tokens_refused(self, field, value):
        g = self.opaque_edge(**{field: value})
        assert validate(g) == []
        with pytest.raises(UnsupportedExportError):
            serialize_gog(g)

    @pytest.mark.parametrize("label, tag", [("", "t"), ("-", "t"), ("x", None), ("a-b", "t-")])
    def test_writable_tokens_round_trip(self, label, tag):
        g = self.opaque_edge(label=label, tag=tag)
        assert parse_gog(serialize_gog(g)) == g

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
        # a word with a letter past z is written back in the comma form
        g = GraphOfGroups({"v1": FreeVertex(27), "v2": FreeVertex(27)},
                          [EdgeSpec("e1", ("v1", "v2"), (CyclicWord((27, -1)), fam("ab")[0]))])
        text = serialize_gog(g)
        assert text.splitlines()[-1] == "edge e1 v1 v2 -1,27 ab"
        assert parse_gog(text) == g

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

        for text, message in [
            ("vertex c cyclic 3\n", "line 1: cyclic vertex takes no extra fields"),
            ("vertex v1 free 2\nvertex v2 solid\n", "line 2: unknown vertex kind 'solid'"),
            ("vertex v1 cyclic\nvertex v2 free 1\nedge e1 v1 v2 0 a\n",
             "line 3: trivial edge group: cyclic attachment is 0"),
        ]:
            with pytest.raises(ParseError) as info:
                parse_gog(text)
            assert str(info.value) == message

        with pytest.raises(ParseError):
            parse_gog("")

    def test_attachments_auto_cyclically_reduced(self):
        text = "vertex v1 free 2\nvertex v2 free 2\nedge e1 v1 v2 baB abAB\n"
        g = parse_gog(text)
        assert g.edges[0].attachments[0] == fam("a")[0]


# ---------------------------------------------------------------------------
# Plain references for the parser and validate: a letter search per
# character, a fresh Alphabet per attachment word, cyclic_reduce with its
# conjugator, and validate_letters.  The library must agree with them on
# every result and on every error message, line number and order.

_REFERENCE_LOWER = "abcdefghijklmnopqrstuvwxyz"


def reference_parse_word(text, alphabet):
    tokens = text.split()
    if not tokens:
        return ()

    def is_int(token):
        return (token[1:] if token[0] in "+-" else token).isdigit()

    if all(is_int(t) for t in tokens):
        try:
            letters = [int(t) for t in tokens]
        except ValueError:  # digits that int() refuses, such as superscripts
            raise ParseError(f"mixed or malformed word syntax: {text!r}") from None
    elif all(t.isalpha() and t.isascii() for t in tokens):
        letters = [
            _REFERENCE_LOWER.index(c) + 1 if c.islower()
            else -(_REFERENCE_LOWER.index(c.lower()) + 1)
            for c in "".join(tokens)
        ]
    else:
        raise ParseError(f"mixed or malformed word syntax: {text!r}")
    for x in letters:
        if x == 0:
            raise ParseError("0 is not a letter")
        if not alphabet.contains(x):
            raise ParseError(
                f"letter {format_letter(x)!r} outside alphabet of rank {alphabet.rank}"
            )
    return tuple(letters)


def reference_attachment(token, group, lineno):
    if isinstance(group, OpaqueVertex):
        return None if token == "-" else token
    if isinstance(group, CyclicVertex):
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"cyclic attachment must be an integer, got {token!r}", lineno)
        if value == 0:
            raise ParseError("trivial edge group: cyclic attachment is 0", lineno)
        return value
    try:
        word = reference_parse_word(token.replace(",", " "), Alphabet(group.rank))
    except InvalidInputError as exc:
        raise ParseError(f"bad attachment word {token!r}: {exc}", lineno)
    core, _ = cyclic_reduce(word)
    if core is None:
        raise ParseError(f"trivial edge group: attachment {token!r} reduces to identity", lineno)
    return core


def reference_parse_gog(text):
    vertices, edges = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) < 3:
                raise ParseError("vertex line needs: vertex <id> <kind> [...]", lineno)
            vid, vkind = tokens[1], tokens[2]
            if vid in vertices:
                raise ParseError(f"duplicate vertex id {vid}", lineno)
            if vkind == "free":
                if len(tokens) != 4 or not tokens[3].isdigit() or int(tokens[3]) < 1:
                    raise ParseError("free vertex needs a positive rank", lineno)
                vertices[vid] = FreeVertex(int(tokens[3]))
            elif vkind == "cyclic":
                if len(tokens) != 3:
                    raise ParseError("cyclic vertex takes no extra fields", lineno)
                vertices[vid] = CyclicVertex()
            elif vkind == "opaque":
                if len(tokens) > 4:
                    raise ParseError("opaque vertex takes at most a label", lineno)
                vertices[vid] = OpaqueVertex(tokens[3] if len(tokens) == 4 else "")
            else:
                raise ParseError(f"unknown vertex kind {vkind!r}", lineno)
        elif kind == "edge":
            if len(tokens) != 6:
                raise ParseError(
                    "edge line needs: edge <id> <v1> <v2> <attach1> <attach2>", lineno
                )
            eid, v1, v2, a1, a2 = tokens[1:]
            for vid in (v1, v2):
                if vid not in vertices:
                    raise ParseError(f"unknown vertex {vid} (declare vertices first)", lineno)
            attachments = (
                reference_attachment(a1, vertices[v1], lineno),
                reference_attachment(a2, vertices[v2], lineno),
            )
            edges.append(EdgeSpec(eid, (v1, v2), attachments))
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    if not vertices:
        raise ParseError("no vertices declared", None)
    return GraphOfGroups(vertices, edges)


def reference_validate(g):
    errors = []
    if not g.vertices:
        return ["graph has no vertices"]
    for e in g.edges:
        for vid in e.endpoints:
            if vid not in g.vertices:
                errors.append(f"edge {e.id}: unknown vertex {vid}")
    ids = [e.id for e in g.edges]
    errors += [f"duplicate edge id {i}" for i in sorted(set(ids)) if ids.count(i) > 1]
    neighbours = {v: set() for v in g.vertices}
    for e in g.edges:
        if not all(v in g.vertices for v in e.endpoints):
            continue
        u, v = e.endpoints
        neighbours[u].add(v)
        neighbours[v].add(u)
        for vid, att in zip(e.endpoints, e.attachments):
            group = g.vertices[vid]
            if isinstance(group, FreeVertex):
                if not isinstance(att, CyclicWord):
                    errors.append(
                        f"edge {e.id}: trivial edge group at free vertex {vid}"
                        " (attachment must be a nontrivial word)"
                    )
                    continue
                try:
                    Alphabet(group.rank).validate_letters(att.letters)
                except InvalidInputError:
                    errors.append(
                        f"edge {e.id}: attachment {format_word(att.letters)} uses letters"
                        f" outside rank-{group.rank} vertex {vid}"
                    )
            elif isinstance(group, CyclicVertex):
                if not isinstance(att, int) or att == 0:
                    errors.append(
                        f"edge {e.id}: attachment at cyclic vertex {vid} must be a nonzero integer"
                    )
            elif att is not None and not isinstance(att, str):
                errors.append(f"edge {e.id}: attachment at opaque vertex {vid} must be a tag")
    reached, stack = set(), [min(g.vertices)]
    while stack:
        u = stack.pop()
        if u not in reached:
            reached.add(u)
            stack.extend(neighbours[u])
    if len(reached) != len(g.vertices):
        missing = ", ".join(sorted(set(g.vertices) - reached))
        errors.append(f"graph is not connected (unreached: {missing})")
    return errors


def outcome(fn, *args):
    """A call's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "line", None)


_VERTEX_IDS = ["v0", "v1", "v2", "v3"]
def _word_tokens(rank):
    """Attachment words at a free vertex: mostly within its rank, often
    reducible, sometimes trivial, out of rank or malformed."""
    within = "abc"[:rank] + "ABC"[:rank]
    letter_form = st.text(within, min_size=1, max_size=8)
    return st.one_of(
        letter_form, letter_form, letter_form, letter_form,
        st.lists(st.integers(-rank, rank).filter(bool), min_size=1, max_size=5).map(
            lambda xs: ",".join(map(str, xs))
        ),
        st.text("abcdABCD", min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(
            lambda xs: ",".join(map(str, xs))
        ),
        st.sampled_from(["aA", "abBA", "z", "Ab,c", "a,b", "1,,2", ",1", "1b", "a-", "+2",
                         "\uff41", "\u00e9", "\u00b2", "a\u00e9", "1,\u00b2", "\uff41b"]),
    )


_ATTACHMENT_TOKENS = {
    "free1": _word_tokens(1),
    "free2": _word_tokens(2),
    "free3": _word_tokens(3),
    "cyclic": st.sampled_from(
        ["1", "-1", "2", "-3", "+2", "3", "-2", "2", "1", "-1", "0", "-0", "x", "1.5", "--1"]
    ),
    "opaque": st.sampled_from(["-", "-", "t", "tag"]),
}
_JUNK_LINES = ["", "# note", "widget v0", "vertex v0", "vertex v9 hub", "vertex v9 free 0",
               "vertex v9 free x", "vertex v9 free 1 2", "vertex v9 cyclic extra",
               "vertex v9 opaque a b", "edge e9 v0 v1 a", "edge e9 vX v0 a a", "vertex v0 cyclic"]


@st.composite
def graph_files(draw):
    """Graph-of-groups file text: well formed vertices and edges, with
    attachments that are often reducible, trivial or out of rank, and now
    and then a malformed line, comment or blank."""
    kinds = {
        vid: draw(st.sampled_from(["free1", "free2", "free2", "free3", "cyclic", "opaque"]))
        for vid in draw(st.lists(st.sampled_from(_VERTEX_IDS), min_size=1, max_size=4, unique=True))
    }
    lines = [
        f"vertex {vid} free {kind[-1]}" if kind.startswith("free") else f"vertex {vid} {kind}"
        for vid, kind in kinds.items()
    ]
    for k in range(draw(st.integers(0, 6))):
        ends = draw(st.lists(st.sampled_from(list(kinds)), min_size=2, max_size=2))
        atts = [draw(_ATTACHMENT_TOKENS[kinds[v]]) for v in ends]
        lines.append(" ".join(["edge", draw(st.sampled_from([f"e{k}", "e0"])), *ends, *atts]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_JUNK_LINES)))
    lines = [line + draw(st.sampled_from(["", "", "  # comment", "\t", "#"])) for line in lines]
    return "\n".join(lines)


def _programmatic_letter():
    return st.one_of(
        st.integers(-4, 4), st.sampled_from([True, False, 1.0, 2.5, "x", None])
    )


class _Exponent(int):
    pass


class _Word(CyclicWord):
    __slots__ = ()


class _OtherGroup:
    """A vertex group of none of the three classes."""


@st.composite
def programmatic_graphs(draw):
    """Graphs built in code, with attachments the parser never makes, and
    subclasses and other classes where the parser makes exact types."""
    names = draw(st.lists(st.sampled_from(_VERTEX_IDS), unique=True, max_size=4))
    groups = st.sampled_from(
        [FreeVertex(1), FreeVertex(2), CyclicVertex(), OpaqueVertex(), _OtherGroup()]
    )
    vertices = {name: draw(groups) for name in names}
    word_class = st.sampled_from([CyclicWord, _Word])
    attachment = st.one_of(
        st.builds(
            lambda cls, xs: cls._from_canonical(tuple(xs)),
            word_class, st.lists(_programmatic_letter(), min_size=1, max_size=4),
        ),
        st.sampled_from([None, "t", 0, 2, -1, True, 1.5, _Exponent(3), _Exponent(0)]),
    )
    edges = [
        EdgeSpec(
            draw(st.sampled_from(["e1", "e2", "e3"])),
            tuple(draw(st.lists(st.sampled_from(_VERTEX_IDS + ["vX"]), min_size=2, max_size=2))),
            (draw(attachment), draw(attachment)),
        )
        for _ in range(draw(st.integers(0, 5)))
    ]
    return GraphOfGroups(vertices, edges)


# One token at every kind of vertex: "2" is the exponent 2 at a cyclic
# vertex, the word b at rank 2 and 3, a tag at an opaque vertex, and no
# letter of rank 1; "-" is no tag at an opaque vertex and nothing elsewhere.
_SHARED_TOKEN_VERTICES = (
    "vertex c cyclic\nvertex f1 free 1\nvertex f2 free 2\nvertex f3 free 3\nvertex o opaque\n"
)
_SHARED_TOKEN_FILES = [
    _SHARED_TOKEN_VERTICES + "\n".join([
        "edge e1 c f2 2 2", "edge e2 f2 o 2 2", "edge e3 f3 c 2 -1", "edge e4 f1 f2 -1 -1",
        "edge e5 o f3 -1 -1", "edge e6 f1 o a a", "edge e7 f2 f3 a a", "edge e8 c o 2 -",
        "edge e9 f3 f1 2 a", "edge e10 o c - -1", "edge e11 f2 f3 ba BA",
    ]),
    _SHARED_TOKEN_VERTICES + "edge e1 c f2 2 2\nedge e2 f1 f2 2 a\n",
    _SHARED_TOKEN_VERTICES + "edge e1 f2 f1 a a\nedge e2 c o a a\n",
    _SHARED_TOKEN_VERTICES + "edge e1 o o - -\nedge e2 f3 f1 - a\n",
    _SHARED_TOKEN_VERTICES + "edge e1 f1 o -1 -1\nedge e2 c f1 -1 -1\nedge e3 f2 c 2 -\n",
]


class TestParserAgainstReference:
    @pytest.mark.parametrize("text", _SHARED_TOKEN_FILES, ids=[
        "valid", "2-at-rank-1", "a-at-cyclic", "dash-at-rank-3", "dash-at-cyclic"])
    def test_shared_tokens_parse_by_vertex_kind(self, text):
        expected = outcome(reference_parse_gog, text)
        assert outcome(parse_gog, text) == expected
        if isinstance(expected, GraphOfGroups):
            assert validate(expected) == reference_validate(expected) == []

    def test_shared_tokens_values(self):
        g = parse_gog(_SHARED_TOKEN_FILES[0])
        attachments = {e.id: e.attachments for e in g.edges}
        b = CyclicWord((2,))
        assert attachments["e1"] == (2, b)
        assert attachments["e2"] == (b, "2")
        assert attachments["e3"] == (b, -1)
        assert attachments["e4"] == (CyclicWord((-1,)),) * 2
        assert attachments["e5"] == ("-1", CyclicWord((-1,)))
        assert attachments["e8"] == (2, None)
        assert attachments["e10"] == (None, -1)
        # a cyclically reduced word is stored in its canonical rotation
        assert [w.letters for w in attachments["e11"]] == [(1, 2), (-1, -2)]

    @settings(max_examples=300, deadline=None)
    @given(graph_files())
    def test_parse_matches_reference(self, text):
        expected = outcome(reference_parse_gog, text)
        got = outcome(parse_gog, text)
        assert got == expected
        if isinstance(got, GraphOfGroups):
            assert validate(got) == reference_validate(got)
            assert parse_gog(serialize_gog(got)) == got

    @settings(max_examples=200, deadline=None)
    @given(programmatic_graphs())
    def test_validate_matches_reference(self, g):
        assert outcome(validate, g) == outcome(reference_validate, g)

    @settings(max_examples=100, deadline=None)
    @given(mixed_graphs())
    def test_round_trip(self, g):
        assert parse_gog(serialize_gog(g)) == g


class TestOtherVertexClass:
    """A vertex group of another class is opaque to every stage, as to validate."""

    GRAPH = GraphOfGroups({"v": _OtherGroup(), "w": CyclicVertex()},
                          [EdgeSpec("e", ("v", "w"), ("t", 2))])

    def test_validates(self):
        assert validate(self.GRAPH) == []

    def test_one_ended_reads_it_as_opaque(self):
        opaque = GraphOfGroups({"v": OpaqueVertex(), "w": CyclicVertex()}, self.GRAPH.edges)
        assert one_ended(self.GRAPH) == one_ended(opaque)
        assert one_ended(self.GRAPH).is_one_ended

    def test_presentation_refuses_it_as_opaque(self):
        with pytest.raises(UnsupportedExportError, match="vertex v is opaque"):
            presentation(self.GRAPH)

    def test_serialized_as_opaque(self):
        assert serialize_gog(self.GRAPH) == "vertex v opaque\nvertex w cyclic\nedge e v w t 2\n"
