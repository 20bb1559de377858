import hashlib
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from freesplit import graphs, whitehead
from freesplit.cli import main
from freesplit.errors import InternalConsistencyError, InvalidInputError, ResourceCapError
from freesplit.graphs import Multigraph
from freesplit.gog import NOT_ONE_ENDED, FreeVertex, double, one_ended
from freesplit.tree import build_ball
from freesplit.whitehead import (
    DECOMPOSABLE,
    INDECOMPOSABLE,
    MinimizationTrace,
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
    FreeGroupMap,
    MultiplierAutomorphism,
    cyclic_reduce,
    format_word,
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


def reference_minimize(alphabet, family):
    """Greedy descent by trying every multiplier move at every step.

    The best strict reducer wins, the first in ``whitehead_moves`` order
    on ties.  Returns (minimized, steps as tuples, composite).
    """
    current = tuple(family)
    composite = FreeGroupMap.identity(alphabet.rank)
    steps = []
    length = total_cyclic_length(current)
    while True:
        best = None
        best_length = length
        for move in whitehead_moves(alphabet):
            candidate = tuple(move.to_map().apply_cyclic(w) for w in current)
            cand_length = total_cyclic_length(candidate)
            if cand_length < best_length:
                best = (move, candidate)
                best_length = cand_length
        if best is None:
            return current, tuple(steps), composite
        move, current = best
        steps.append((move.multiplier, move.side, length, best_length))
        composite = composite.then(move.to_map())
        length = best_length


@st.composite
def descent_corpus(draw):
    """A family of rank 1-4, often pushed off minimality by random moves."""
    rank = draw(st.integers(min_value=1, max_value=4))
    letters = Alphabet(rank).letters()
    words = draw(st.lists(st.lists(st.sampled_from(letters), max_size=7), min_size=1, max_size=3))
    family = tuple(core for core, _ in map(cyclic_reduce, words) if core is not None)
    if not family:
        family = (CyclicWord((rank,)),)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        move = helpers.random_move(rng, rank).to_map()
        moved = tuple(move.apply_cyclic(w) for w in family)
        if total_cyclic_length(moved) > 30:
            break
        family = moved
    return Alphabet(rank), family


@st.composite
def lemma_corpus(draw):
    """A family of rank 1-4 with some proper powers and some generators unused,
    sometimes moved by random Whitehead moves."""
    rank = draw(st.integers(min_value=1, max_value=4))
    used = sorted(draw(st.sets(st.integers(min_value=1, max_value=rank), min_size=1)))
    letters = [s * i for i in used for s in (1, -1)]
    drawn = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(letters), max_size=6), st.integers(1, 3)),
        min_size=1, max_size=4,
    ))
    family = []
    for word, power in drawn:
        core, _ = cyclic_reduce(word)
        if core is not None:
            family.append(CyclicWord(core.letters * power))
    if not family:
        family = [CyclicWord((used[0],))]
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        move = helpers.random_move(rng, rank).to_map()
        moved = [move.apply_cyclic(w) for w in family]
        if total_cyclic_length(moved) > 30:
            break
        family = moved
    return Alphabet(rank), tuple(family)


@st.composite
def wide_corpus(draw):
    """A family of 1-3 random cyclic words at rank 1-12, each up to 3 * rank + 2
    letters long, sometimes moved by random Whitehead moves."""
    rank = draw(st.integers(min_value=1, max_value=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=3 * rank + 2),
                            min_size=1, max_size=3))
    family = tuple(helpers.random_cyclic_word(rng, rank, n) for n in lengths)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        move = helpers.random_move(rng, rank).to_map()
        family = tuple(move.apply_cyclic(w) for w in family)
    return Alphabet(rank), family


def reference_basis(alphabet, words):
    """``recognize_basis`` by the descent alone, with no cut-vertex test."""
    if len(words) != alphabet.rank:
        return False, None
    minimized, trace = minimize(alphabet, words)
    if sorted(abs(w.letters[0]) if len(w) == 1 else 0 for w in minimized) != list(
            range(1, alphabet.rank + 1)):
        return False, None
    return True, trace.composite


class TestCutVertexLemma:
    """The vertex-deletion oracle for 2-connectivity of the input Whitehead
    graph, against ``is_two_vertex_connected`` and networkx."""

    @settings(max_examples=300, deadline=None)
    @given(lemma_corpus())
    def test_agrees_with_multigraph_and_networkx(self, case):
        alphabet, family = case
        fast = helpers.whitehead_two_connected(alphabet, family)
        graph = build_whitehead_graph(alphabet, family)
        assert fast == graph.is_two_vertex_connected()[0]
        shadow = nx.Graph()
        shadow.add_nodes_from(alphabet.letters())
        shadow.add_edges_from((u, v) for u, v, _ in graph.edges())
        # the two-vertex convention: a single edge counts, a lone vertex does not
        expected = (
            len(shadow) >= 2 and nx.is_connected(shadow)
            and not list(nx.articulation_points(shadow))
        )
        assert fast == expected

    @settings(max_examples=300, deadline=None)
    @given(lemma_corpus())
    def test_two_connected_input_is_indecomposable(self, case):
        alphabet, family = case
        fast = helpers.whitehead_two_connected(alphabet, family)
        verdict = decide_indecomposable(alphabet, family)
        if fast:
            assert verdict.decision == INDECOMPOSABLE
        if verdict.decision == DECOMPOSABLE:
            assert not fast
            assert not build_whitehead_graph(alphabet, family).is_two_vertex_connected()[0]

    def test_small_cases(self):
        assert helpers.whitehead_two_connected(ALPH2, fam("abAB"))
        assert helpers.whitehead_two_connected(Alphabet(1), fam("aa", rank=1))
        assert helpers.whitehead_two_connected(Alphabet(1), fam("a", rank=1))
        # the path a - B - b - A has cut vertices
        assert not helpers.whitehead_two_connected(ALPH2, fam("ab", "b"))
        # a cut vertex here, yet one descent step shows it indecomposable
        assert not helpers.whitehead_two_connected(ALPH2, fam("aaabab"))
        assert decide_indecomposable(ALPH2, fam("aaabab")).decision == INDECOMPOSABLE
        assert not helpers.whitehead_two_connected(Alphabet(3), fam("abAB", "ab", rank=3))

    def test_unused_generator_answers_before_allocating(self):
        # rows for 2 * 10**9 letters would never fit; the support check comes first
        assert not helpers.whitehead_two_connected(Alphabet(10**9), fam("ab", rank=10**9))


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
    @settings(max_examples=80, deadline=None)
    @given(descent_corpus())
    def test_matches_exhaustive_scan(self, case):
        alphabet, family = case
        minimized, trace = minimize(alphabet, family)
        steps = tuple(
            (s.automorphism.multiplier, s.automorphism.side, s.length_before, s.length_after)
            for s in trace.steps
        )
        assert (minimized, steps, trace.composite) == reference_minimize(alphabet, family)

    def test_length_change_is_cut_minus_degree(self):
        # |phi(W)| - |W| = cap(A) - deg(x) for every multiplier move (x, A)
        rng = random.Random(73)
        for _ in range(40):
            rank = rng.randint(1, 3)
            alphabet = Alphabet(rank)
            family = helpers.random_family(rng, rank, 3, 12)
            graph = build_whitehead_graph(alphabet, family)
            degrees = graph.degrees()
            for move in whitehead_moves(alphabet):
                side = move.side
                cap = sum(m for u, v, m in graph.edges() if (u in side) != (v in side))
                mapping = move.to_map()
                moved = tuple(mapping.apply_cyclic(w) for w in family)
                change = total_cyclic_length(moved) - total_cyclic_length(family)
                assert change == cap - degrees[move.multiplier]

    def test_inverse_multiplier_changes_length_alike(self):
        # deg(x) = deg(x^-1) and one cut value both ways, so the descent
        # never needs, and never takes, an inverse letter as multiplier
        rng = random.Random(79)
        for _ in range(120):
            rank = rng.randint(1, 6)
            alphabet = Alphabet(rank)
            family = helpers.random_family(rng, rank, 4, 4 * rank + 8)
            graph = build_whitehead_graph(alphabet, family)
            degrees = graph.degrees()
            for x in alphabet.letters():
                assert degrees[x] == degrees[-x]
                assert graph.min_cut(x, -x)[0] == graph.min_cut(-x, x)[0]
            for _ in range(3):
                move = helpers.random_move(rng, rank).to_map()
                family = tuple(move.apply_cyclic(w) for w in family)
            _, trace = minimize(alphabet, family)
            assert all(step.automorphism.multiplier > 0 for step in trace.steps)

    def test_one_flow_per_generator(self, monkeypatch):
        # At most one flow per generator and step, on letter positions
        # (a = 0, a^-1 = 1, b = 2, ...), stopped at deg(x) plus the best
        # change so far; x is skipped when that limit is at most 0
        flows = []
        kernel = whitehead._max_flow

        def recorded(rows, source, sink, limit):
            value, side = kernel(rows, source, sink, limit)
            flows.append((source, sink, limit, "stopped" if side is None else value))
            return value, side

        monkeypatch.setattr(whitehead, "_max_flow", recorded)
        _, trace = minimize(Alphabet(3), fam("aab", "abcb", rank=3))
        assert [(s.length_before, s.length_after) for s in trace.steps] == [(7, 5), (5, 3), (3, 2)]
        assert flows == [
            # degrees 3, 3, 1: a cuts 1 (change -2), b stops at 3 - 2, c's 1 - 2 is skipped
            (0, 1, 3, 1), (2, 3, 1, "stopped"),
            # degrees 1, 3, 1: a stops at 1, b cuts 1 (change -2), c is skipped
            (0, 1, 1, "stopped"), (2, 3, 3, 1),
            # degrees 1, 1, 1: a stops, b cuts 0 (change -1), c's 1 - 1 is skipped
            (0, 1, 1, "stopped"), (2, 3, 1, 0),
            # the final check, degrees 1, 0, 1: a and c stop, unused b is skipped
            (0, 1, 1, "stopped"), (4, 5, 1, "stopped"),
        ]

    def test_matches_full_cuts_above_the_oracle_ranks(self):
        # reference_minimize stops at rank 4; above it the bounded flows
        # must take the steps of a full minimum cut for every generator
        rng = random.Random(211)
        stepped = 0
        for _ in range(200):
            rank = rng.randint(5, 12)
            family = helpers.random_family(rng, rank, 3, 3 * rank)
            for _ in range(3):
                move = helpers.random_move(rng, rank).to_map()
                moved = tuple(move.apply_cyclic(w) for w in family)
                if total_cyclic_length(moved) <= 6 * rank:
                    family = moved
            minimized, trace = minimize(Alphabet(rank), family)
            steps = tuple(
                (s.automorphism.multiplier, s.automorphism.side, s.length_before, s.length_after)
                for s in trace.steps
            )
            assert (minimized, steps) == helpers.full_cut_minimize(Alphabet(rank), family)
            stepped += bool(steps)
        assert stepped >= 190

    @pytest.mark.parametrize("seed, rank, steps, digest", [
        (6, 6, 5, "7e038cd6f0cd305a7c72b34a55f31c6bbcd05dc882ecdabcd180356c9762debd"),
        (8, 8, 10, "f5a4ca24b9bfd10e5550e496666b0994f266e44873eb8a5c8ce1e43db0809495"),
        (10, 10, 19, "866eca916032d9c61ba0243d6b29893bf829ab18a4391f3debdd4df341bf5660"),
    ])
    def test_traces_above_the_oracle_ranks(self, capsys, seed, rank, steps, digest):
        # the exhaustive scan stops at rank 4; these JSON reports of seeded
        # multi-step descents at ranks 6-10 are pinned to their sha256
        rng = random.Random(seed)
        family = helpers.random_family(rng, rank, 3, 3 * rank)
        for _ in range(4):
            move = helpers.random_move(rng, rank).to_map()
            family = tuple(move.apply_cyclic(w) for w in family)
        _, trace = minimize(Alphabet(rank), family)
        assert len(trace.steps) == steps
        texts = [format_word(w.letters) for w in family]
        assert main(["minimize", "--rank", str(rank), "--format", "json", *texts]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_reducible_pair(self):
        minimized, trace = minimize(ALPH2, fam("ab", "b"))
        assert set(minimized) == set(fam("a", "b"))
        assert len(trace.steps) == 1
        assert (trace.steps[0].length_before, trace.steps[0].length_after) == (3, 2)

    def test_commutator_already_minimal(self):
        minimized, trace = minimize(ALPH2, fam("abAB"))
        assert minimized == fam("abAB")
        assert trace.steps == ()
        assert trace.composite == FreeGroupMap.identity(2)

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

    def test_one_search_of_the_minimal_graph(self, monkeypatch):
        # the lemma's search of the input rows, then one of the minimal graph
        # for both its components and its cut vertices
        searches = []

        def counting(rows):
            searches.append(len(rows))
            return search(rows)

        search = graphs._search
        monkeypatch.setattr(graphs, "_search", counting)
        monkeypatch.setattr(whitehead, "_search", counting)
        verdict = decide_indecomposable(Alphabet(3), fam("abAB", rank=3))
        assert verdict.decision == DECOMPOSABLE
        assert verdict.bipartition == (frozenset({1, 2}), frozenset({3}))
        assert searches == [6, 6]

    def test_connected_minimal_graph_with_a_cut_vertex_is_a_defect(self, monkeypatch):
        # fam("ab", "b") has a connected Whitehead graph with cut vertices b and B
        monkeypatch.setattr(whitehead, "_descend", lambda alphabet, family, rows: (
            family, MinimizationTrace(2, ()), build_whitehead_graph(alphabet, fam("ab", "b"))))
        with pytest.raises(InternalConsistencyError) as raised:
            decide_indecomposable(ALPH2, fam("ab"))
        assert str(raised.value) == (
            "minimal Whitehead graph is connected but has cut vertices (2, -2)")

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidInputError):
            decide_indecomposable(ALPH2, ())

    def test_non_cyclic_word_rejected(self):
        with pytest.raises(InvalidInputError):
            decide_indecomposable(ALPH2, [(1, 2)])

    def test_trivial_text_word_rejected(self):
        assert family_from_texts(ALPH2, ["baB", "abAB"]) == fam("a", "abAB")
        with pytest.raises(InvalidInputError, match="word 'abBA' is trivial"):
            family_from_texts(ALPH2, ["ab", "abBA"])

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
            phi = MultiplierAutomorphism(2, x, frozenset(side)).to_map()
            moved = tuple(phi.apply_cyclic(w) for w in family)
            d1 = decide_indecomposable(ALPH2, family).decision
            d2 = decide_indecomposable(ALPH2, moved).decision
            assert d1 == d2, (family, phi)


class TestLazyComposite:
    """The trace keeps its steps; the composite is built on first read."""

    def test_composed_on_first_read(self):
        alphabet = Alphabet(3)
        family = fam("aab", "abcb", rank=3)
        _, trace = minimize(alphabet, family)
        verdict = decide_indecomposable(alphabet, family)
        assert len(trace.steps) == 3
        assert trace._composite is None
        assert verdict.trace._composite is None
        folded = FreeGroupMap.identity(3)
        for step in trace.steps:
            folded = folded.then(step.automorphism.to_map())
        assert trace.composite == folded
        assert trace._composite is trace.composite
        assert verdict.automorphism is verdict.trace.composite
        assert verdict.automorphism == folded
        # equality and hashing ignore whether the composite was read
        unread = minimize(alphabet, family)[1]
        assert unread._composite is None
        assert trace == unread and hash(trace) == hash(unread)

    def test_text_paths_never_compose(self, capsys, monkeypatch):
        def unread(trace):
            raise AssertionError("a text path composed the trace")

        monkeypatch.setattr(MinimizationTrace, "composite", property(unread))
        for command in ("minimize", "indecomposable"):
            assert main([command, "--rank", "3", "aab", "abcb"]) == 0
        # the free vertices of this double fail the cut-vertex test and descend
        assert one_ended(double(ALPH2, fam("ab", "b"))).decision == NOT_ONE_ENDED
        capsys.readouterr()


class TestDecidedByLemma:
    """A 2-connected input graph is decided without a descent; the certificate
    is built when read, and equals the eager descent's."""

    @settings(max_examples=300, deadline=None)
    @given(wide_corpus())
    def test_agrees_with_oracle_and_eager_descent(self, case):
        alphabet, family = case
        minimized, trace, graph = whitehead._descend(alphabet, [w.letters for w in family])
        two_connected = helpers.whitehead_two_connected(alphabet, family)
        verdict = decide_indecomposable(alphabet, family)
        assert (verdict._pending is not None) == two_connected
        if two_connected or graph.is_two_vertex_connected()[0]:
            assert verdict.decision == INDECOMPOSABLE and verdict.bipartition is None
        else:
            assert verdict.decision == DECOMPOSABLE
        assert verdict.minimized == minimized
        assert verdict.trace == trace
        assert verdict.automorphism == trace.composite
        assert verdict.graph.vertices == graph.vertices
        assert verdict.graph.edges() == graph.edges()
        assert verdict._pending is None

    def test_certificate_built_once_on_first_read(self, monkeypatch):
        descents = []

        def counting(alphabet, family):
            descents.append(family)
            return descend(alphabet, family)

        descend = whitehead._descend
        monkeypatch.setattr(whitehead, "_descend", counting)
        family = fam("abAB", "aabb")
        verdict = decide_indecomposable(ALPH2, family)
        assert verdict.is_indecomposable and verdict.bipartition is None
        assert descents == []
        graph = verdict.graph
        letters = [w.letters for w in family]  # the descent reads checked letter tuples
        assert descents == [letters]
        assert verdict.graph is graph and verdict.minimized == family
        assert verdict.trace.steps == () and verdict.automorphism == FreeGroupMap.identity(2)
        assert descents == [letters]
        # the public five-field form still builds an eager verdict
        eager = whitehead.IndecomposabilityVerdict(
            INDECOMPOSABLE, verdict.minimized, graph, verdict.trace, None)
        assert eager == verdict and hash(eager) == hash(verdict)
        assert descents == [letters]

    def test_unminimized_certificate_is_checked(self, monkeypatch):
        # a descent that ended on a graph with a cut vertex is a defect, reported on read
        monkeypatch.setattr(whitehead, "_descend", lambda alphabet, family: (
            family, MinimizationTrace(2, ()), build_whitehead_graph(alphabet, fam("ab", "b"))))
        verdict = decide_indecomposable(ALPH2, fam("abAB"))
        assert verdict.decision == INDECOMPOSABLE
        with pytest.raises(InternalConsistencyError, match="cut vertices"):
            verdict.minimized

    def test_text_runs_no_flow_and_json_as_many_as_the_descent(self, capsys, monkeypatch):
        # AABCABCbc is 2-connected but not minimal: its descent takes two steps
        alphabet, family = Alphabet(3), fam("AABCABCbc", rank=3)
        assert helpers.whitehead_two_connected(alphabet, family)
        flows = []

        def counting(rows, source, sink, limit=float("inf")):
            flows.append(source)
            return max_flow(rows, source, sink, limit)

        max_flow = whitehead._max_flow
        monkeypatch.setattr(whitehead, "_max_flow", counting)
        assert main(["indecomposable", "--rank", "3", "AABCABCbc"]) == 0
        assert capsys.readouterr().out == "INDECOMPOSABLE\n"
        assert flows == []
        assert len(whitehead._descend(alphabet, [w.letters for w in family])[1].steps) == 2
        eager = len(flows)
        flows.clear()
        assert main(["indecomposable", "--rank", "3", "--format", "json", "AABCABCbc"]) == 0
        assert '"verdict": "indecomposable"' in capsys.readouterr().out
        assert len(flows) == eager == 9

    def test_rank_cap_refuses_before_any_row(self):
        family = fam("ab", rank=400_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                decide_indecomposable(Alphabet(400_000_000), family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_foreign_letter_refused_before_the_lemma(self):
        with pytest.raises(InvalidInputError, match="outside"):
            decide_indecomposable(ALPH2, fam("abcABC", rank=3))


class TestVerdictValue:
    """Verdicts from separate calls compare and hash equal: their Whitehead
    graphs are separate objects, and the graph follows from the minimized
    family anyway."""

    @pytest.mark.parametrize("words, lemma", [
        (("abAB",), True),
        (("abAB", "aabb"), True),
        (("ab",), False),
        (("ab", "b"), False),
        (("aaabab",), False),  # indecomposable, past the lemma
    ])
    def test_equal_values_and_hashes(self, words, lemma):
        family = fam(*words)
        first, second = decide_indecomposable(ALPH2, family), decide_indecomposable(ALPH2, family)
        assert (first._pending is not None) == lemma
        assert first.graph is not second.graph
        assert first == second and hash(first) == hash(second)
        if lemma:  # one certificate read and one not: the read builds the other's
            third = decide_indecomposable(ALPH2, family)
            assert third._pending is not None
            assert third == first and hash(third) == hash(first)


class TestOneValidation:
    """Each call checks its family once, whichever path it takes."""

    @pytest.mark.parametrize("call, words, rank", [
        ("decide", ("abAB", "aabb"), 2),  # by the lemma, certificate read
        ("decide", ("ab", "b"), 2),  # past the lemma: decomposable
        ("decide", ("AABCABCbc",), 3),  # by the lemma, two-step certificate
        ("basis", ("ab", "b"), 2),  # past the lemma at rank 2
        ("basis", ("a",), 1),  # rank 1 skips the lemma
        ("minimize", ("aab",), 2),
        ("graph", ("abAB",), 2),
        ("basis", ("a",), 2),  # a tuple shorter than the rank
    ])
    def test_family_checked_once(self, monkeypatch, call, words, rank):
        checks = []

        def counting(alphabet, family):
            checks.append(len(family))
            return family_letters(alphabet, family)

        family_letters = whitehead._family_letters
        monkeypatch.setattr(whitehead, "_family_letters", counting)
        alphabet, family = Alphabet(rank), fam(*words, rank=rank)
        if call == "decide":
            verdict = decide_indecomposable(alphabet, family)
            verdict.graph, verdict.trace.composite  # the lazy certificate, if any
        elif call == "basis":
            recognize_basis(alphabet, family)
        elif call == "minimize":
            minimize(alphabet, family)
        else:
            build_whitehead_graph(alphabet, family)
        assert checks == [len(family)]

    @pytest.mark.parametrize("letters, bad", [((1, 4, -3), 4), ((1, -3, 4), -3), ((1, -3), -3),
                                              ((3, 1), 3)])
    def test_first_letter_outside_the_rank_is_named(self, letters, bad):
        # first in the canonical rotation, the order a CyclicWord keeps
        family = (CyclicWord((1, 2)), CyclicWord(letters))
        for call in (decide_indecomposable, minimize, recognize_basis, build_whitehead_graph):
            with pytest.raises(InvalidInputError,
                               match=f"^letter {bad} outside alphabet of rank 2$"):
                call(ALPH2, family)


class TestDescentWork:
    """Each descent step builds one Whitehead graph and one move; a decision
    hands the capacity rows of its 2-connectivity test to the first step."""

    @pytest.mark.parametrize("call, words, rank, steps", [
        ("decide", ("aBBBB",), 2, 4),
        ("decide", ("aCBBBBB",), 3, 6),
        ("decide", ("add",), 4, 2),  # rank past the length: no test, no rows to hand over
        ("basis", ("a", "aaaab"), 2, 4),
        ("basis", ("aC", "acbc", "Acc"), 3, 5),
    ])
    def test_rows_built_once_per_step_and_one_move_per_step(self, monkeypatch, call, words,
                                                             rank, steps):
        alphabet, family = Alphabet(rank), fam(*words, rank=rank)
        trace = minimize(alphabet, family)[1]
        assert len(trace.steps) == steps
        rows, moves = [], []

        def counting_rows(rank, words):
            rows.append(len(words))
            return capacity_rows(rank, words)

        def counting_move(self, *fields):
            moves.append(fields)
            move_init(self, *fields)

        capacity_rows, move_init = whitehead._capacity_rows, MultiplierAutomorphism.__init__
        monkeypatch.setattr(whitehead, "_capacity_rows", counting_rows)
        monkeypatch.setattr(MultiplierAutomorphism, "__init__", counting_move)
        if call == "decide":
            verdict = decide_indecomposable(alphabet, family)
            assert verdict._pending is None and verdict.trace == trace
        else:
            assert recognize_basis(alphabet, family) == (True, trace.composite)
        assert len(rows) == steps + 1
        assert moves == [(rank, step.automorphism.multiplier, step.automorphism.side)
                         for step in trace.steps]

    def test_decision_trace_is_the_minimize_trace(self):
        # random families and bases at ranks 2-8, moved by random moves
        rng = random.Random(89)
        multi_step = bases = 0
        for i in range(280):
            rank = 2 + i % 7
            alphabet = Alphabet(rank)
            if i // 7 % 2:
                family = tuple(CyclicWord((g,)) for g in range(1, rank + 1))
            else:
                family = helpers.random_family(rng, rank, 3, 3 * rank)
            for _ in range(rng.randint(1, 5)):
                move = helpers.random_move(rng, rank).to_map()
                family = tuple(move.apply_cyclic(w) for w in family)
            minimized, trace = minimize(alphabet, family)
            verdict = decide_indecomposable(alphabet, family)
            assert verdict.trace == trace and verdict.minimized == minimized
            multi_step += len(trace.steps) >= 2
            if i // 7 % 2:
                assert recognize_basis(alphabet, family) == (True, trace.composite)
                bases += 1
        assert multi_step >= 150 and bases == 140


class TestRankPastTheDigitLimit:
    """A rank past the interpreter's 4,300-digit limit on decimal conversion is
    refused by the vertex budget in one short line; every smaller rank prints
    in full, as before."""

    CALLS = {
        "ball": lambda alphabet: build_ball(alphabet, 1),
        "ball radius 0": lambda alphabet: build_ball(alphabet, 0),
        "minimize": lambda alphabet: minimize(alphabet, fam("ab")),
        "decide": lambda alphabet: decide_indecomposable(alphabet, fam("ab")),
        "basis": lambda alphabet: recognize_basis(alphabet, fam("ab")),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_refused_in_one_short_line(self, call):
        with pytest.raises(ResourceCapError) as raised:
            self.CALLS[call](Alphabet(10**4400))
        message = str(raised.value)
        assert "rank an int of 14617 bits" in message
        assert "\n" not in message and len(message) < 200

    @pytest.mark.parametrize("rank, size", [(10**6 + 1, "2000003"),  # 7 digits
                                                (10**4299, f"more than {10**18}")])  # 4,300
    def test_printable_ranks_keep_their_messages(self, rank, size):
        expected = {
            "ball": f"ball of rank {rank}, radius 1 has {size} vertices (cap 2000000)",
            "ball radius 0": f"ball of rank {rank} has {2 * rank} letters (cap 2000000)",
            "decide": f"Whitehead graph of rank {rank} has {2 * rank} vertices (cap 2000000)",
        }
        for call, message in expected.items():
            with pytest.raises(ResourceCapError) as raised:
                self.CALLS[call](Alphabet(rank))
            assert str(raised.value) == message

    def test_negative_ranks_are_refused_in_one_short_line(self):
        for make, name in ((Alphabet, "alphabet"), (FreeVertex, "free vertex")):
            with pytest.raises(InvalidInputError, match=f"^{name} rank must be >= 1, got a"
                                                        " negative int of 14617 bits$"):
                make(-10**4400)


class TestLetterPastTheDigitLimit:
    """A letter past the 4,300-digit limit is named by its bit length in a
    one-line InvalidInputError, where formatting its message raised a bare
    ValueError; printable letters keep their messages."""

    CALLS = {
        "apply": (lambda: FreeGroupMap.identity(2).apply((10**4400,)),
                  "letter an int of 14617 bits outside alphabet of rank 2"),
        "letter_image": (lambda: FreeGroupMap.identity(2).letter_image(10**4400),
                         "letter an int of 14617 bits outside alphabet of rank 2"),
        "map image": (lambda: FreeGroupMap(2, [(10**4400,), (1,)]),
                      "letter an int of 14617 bits outside alphabet of rank 2"),
        "map rank": (lambda: FreeGroupMap(10**4400, []),
                     "need an int of 14617 bits generator images, got 0"),
        "decide": (lambda: decide_indecomposable(Alphabet(2), [CyclicWord((1, 10**4400))]),
                   "letter an int of 14617 bits outside alphabet of rank 2"),
        "cyclic word": (lambda: CyclicWord((10**4400, -10**4400)),
                        "not cyclically reduced: (an int of 14617 bits,"
                        " a negative int of 14617 bits)"),
        "alphabet": (lambda: Alphabet(10**4400).validate_letters([10**4400 + 1]),
                     "letter an int of 14617 bits outside alphabet of rank an int of 14617 bits"),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_refused_in_one_line(self, call):
        make, message = self.CALLS[call]
        with pytest.raises(InvalidInputError) as raised:
            make()
        assert str(raised.value) == message

    def test_printable_letters_keep_their_messages(self):
        cases = [
            (lambda: FreeGroupMap.identity(2).apply((1, 3)), "letter 3 outside alphabet of rank 2"),
            (lambda: FreeGroupMap.identity(2).letter_image(1.0),
             "letter 1.0 outside alphabet of rank 2"),
            (lambda: FreeGroupMap(2, [(-3,), (1,)]), "letter -3 outside alphabet of rank 2"),
            (lambda: FreeGroupMap(3, []), "need 3 generator images, got 0"),
            (lambda: Alphabet(2).validate_letters([1, "a"]), "letter 'a' outside alphabet of rank 2"),
            (lambda: CyclicWord((1, 2, -1)), "not cyclically reduced: (1, 2, -1)"),
            (lambda: CyclicWord((True, -1)), "not cyclically reduced: (True, -1)"),
            (lambda: CyclicWord((1, 2.0)), "invalid letter 2.0"),
            (lambda: free_reduce((1, 0)), "invalid letter 0"),
            (lambda: free_reduce((1, "b")), "invalid letter 'b'"),
        ]
        for make, message in cases:
            with pytest.raises(InvalidInputError) as raised:
                make()
            assert str(raised.value) == message


class TestRecognizeBasis:
    def test_standard_basis(self):
        ok, witness = recognize_basis(ALPH2, fam("a", "b"))
        assert ok and witness == FreeGroupMap.identity(2)

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
                phi = MultiplierAutomorphism(2, x, frozenset(side)).to_map()
                family = [phi.apply_cyclic(w) for w in family]
            ok, _ = recognize_basis(ALPH2, family)
            assert ok, family


    def test_cut_vertex_refusal_agrees_with_the_descent(self):
        # bases under random moves, random tuples, and bases with one word
        # squared or replaced, at ranks 2-5
        rng = random.Random(83)
        two_connected = 0
        for i in range(2100):
            rank = 2 + i % 4
            alphabet = Alphabet(rank)
            words = [CyclicWord((g,)) for g in range(1, rank + 1)]
            for _ in range(rng.randint(1, 6)):
                move = helpers.random_move(rng, rank).to_map()
                words = [move.apply_cyclic(w) for w in words]
            kind = i // 4 % 3
            if kind == 1:
                words = [helpers.random_cyclic_word(rng, rank, rng.randint(1, 6))
                         for _ in range(rank)]
            elif kind == 2:
                k = rng.randrange(rank)
                words[k] = (CyclicWord(words[k].letters * 2) if rng.random() < 0.5
                            else helpers.random_cyclic_word(rng, rank, rng.randint(1, 8)))
            two_connected += helpers.whitehead_two_connected(alphabet, words)
            assert recognize_basis(alphabet, words) == reference_basis(alphabet, words), words
        assert two_connected >= 200

    def test_rank_one_letter_is_a_basis(self):
        # the graph of a is one edge, 2-connected, yet a is a basis of Z
        assert helpers.whitehead_two_connected(Alphabet(1), fam("a", rank=1))
        assert recognize_basis(Alphabet(1), fam("a", rank=1))[0]
        assert not recognize_basis(Alphabet(1), fam("aa", rank=1))[0]

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
