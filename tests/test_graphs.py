import copy
import itertools
import random

import networkx as nx
import pytest
from networkx.algorithms.flow import edmonds_karp

from freesplit.errors import InvalidInputError
from freesplit.graphs import Multigraph, _max_flow, _search
from freesplit.whitehead import build_whitehead_graph
from freesplit.words import Alphabet

import helpers


def graph_from_edges(n, edges):
    g = Multigraph(range(n))
    for e in edges:
        g.add_edge(*e)
    return g


class TestBasics:
    def test_components_with_isolated(self):
        g = graph_from_edges(4, [(0, 1)])
        assert g.components() == (frozenset({0, 1}), frozenset({2}), frozenset({3}))

    def test_multiplicity_accumulates(self):
        g = graph_from_edges(2, [(0, 1), (0, 1), (1, 0, 3)])
        assert g.edges() == [(0, 1, 5)]
        assert g.total_edges() == 5

    def test_degree_counts_loops_twice(self):
        g = Multigraph([0, 1])
        g.add_edge(0, 0)
        g.add_edge(0, 1)
        assert g.degrees()[0] == 3

    def test_rejects_unknown_vertex(self):
        g = Multigraph([0, 1])
        with pytest.raises(InvalidInputError):
            g.add_edge(0, 5)

    def test_loops_optional(self):
        g = Multigraph([0], allow_loops=False)
        with pytest.raises(InvalidInputError):
            g.add_edge(0, 0)


class TestTwoVertexConnectivity:
    def test_single_edge_is_two_connected(self):
        # the convention: one (possibly multiple) edge on two vertices passes
        g = graph_from_edges(2, [(0, 1)])
        assert g.is_two_vertex_connected() == (True, ())
        g2 = graph_from_edges(2, [(0, 1, 4)])
        assert g2.is_two_vertex_connected()[0]

    def test_cycle_is_two_connected(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.is_two_vertex_connected() == (True, ())

    def test_path_has_cut_vertices(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        ok, cuts = g.is_two_vertex_connected()
        assert not ok and cuts == (1,)

    def test_single_vertex_fails(self):
        assert Multigraph([0]).is_two_vertex_connected() == (False, ())

    def test_disconnected_fails_and_reports_cuts(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        ok, cuts = g.is_two_vertex_connected()
        assert not ok and cuts == (1,)

    def test_doubled_edge_in_path_still_cut(self):
        # biconnectivity uses the simple shadow: multiplicity cannot help
        g = graph_from_edges(3, [(0, 1, 2), (1, 2)])
        ok, cuts = g.is_two_vertex_connected()
        assert not ok and cuts == (1,)

    def test_against_brute_force(self):
        rng = random.Random(101)
        for _ in range(300):
            g = helpers.random_multigraph(rng, 10)
            assert set(g.articulation_points()) == helpers.brute_articulation_points(g)
            assert g.is_two_vertex_connected()[0] == helpers.brute_is_two_vertex_connected(g)


class TestNetworkxOracle:
    """Cut vertices and components against networkx on the same multigraph."""

    def test_against_networkx(self):
        rng = random.Random(404)
        for _ in range(300):
            n = rng.randint(1, 12)
            g, h = Multigraph(range(n)), nx.MultiGraph()
            h.add_nodes_from(range(n))
            # loops, parallel edges, and often several components
            for _ in range(rng.randint(0, 2 * n)):
                u, v, m = rng.randrange(n), rng.randrange(n), rng.randint(1, 2)
                g.add_edge(u, v, m)
                h.add_edges_from([(u, v)] * m)
            assert set(g.articulation_points()) == set(nx.articulation_points(h))
            assert set(g.components()) == {frozenset(c) for c in nx.connected_components(h)}

    def test_position_mapping(self):
        # vertices out of sorted order, with -1 and -2, which hash alike
        rng = random.Random(405)
        for _ in range(300):
            n = rng.randint(2, 12)
            vertices = [-1, -2] + rng.sample([*range(-12, -2), *range(12)], n - 2)
            rng.shuffle(vertices)
            g, h = Multigraph(vertices), nx.MultiGraph()
            h.add_nodes_from(vertices)
            for _ in range(rng.randint(0, 2 * n)):
                u, v, m = rng.choice(vertices), rng.choice(vertices), rng.randint(1, 2)
                g.add_edge(u, v, m)
                h.add_edges_from([(u, v)] * m)
            position = {v: i for i, v in enumerate(vertices)}
            expected = sorted((frozenset(c) for c in nx.connected_components(h)),
                              key=lambda c: min(map(position.get, c)))
            assert g.components() == tuple(expected)
            cuts = sorted(nx.articulation_points(h), key=position.get)
            assert g.articulation_points() == tuple(cuts)
            two_connected = n >= 2 and nx.is_connected(h) and not cuts
            assert g.is_two_vertex_connected() == (two_connected, tuple(cuts))
            assert g.degrees() == dict(h.degree())
            assert list(g.degrees()) == vertices
            ends = sorted({tuple(sorted((u, v), key=position.get)) for u, v in h.edges()},
                          key=lambda e: (position[e[0]], position[e[1]]))
            assert g.edges() == [(u, v, h.number_of_edges(u, v)) for u, v in ends]


class TestBitmaskTwoConnected:
    """The one search on capacity rows, which the star certificate and the
    one-endedness pretest run, and the vertex-deletion oracle on adjacency
    bitmasks, both against networkx."""

    @staticmethod
    def agree(n, edges):
        masks, rows = [0] * n, [{} for _ in range(n)]
        for a, b in edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
            rows[a][b] = rows[b][a] = 1
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        cuts = sorted(nx.articulation_points(g))
        expected = n >= 2 and nx.is_connected(g) and not cuts
        components, found = _search(rows)
        assert (len(components), found) == (nx.number_connected_components(g), cuts), (n, edges)
        assert (n >= 2 and len(components) == 1 and not found) == expected, (n, edges)
        assert helpers.bitmask_two_connected(masks) == expected, (n, edges)
        return expected

    def test_every_graph_on_four_letters(self):
        pairs = list(itertools.combinations(range(4), 2))
        verdicts = [self.agree(4, [p for i, p in enumerate(pairs) if mask >> i & 1])
                    for mask in range(1 << len(pairs))]
        assert len(verdicts) == 64 and 0 < sum(verdicts) < 64

    def test_random_graphs_on_six_letters(self):
        rng = random.Random(149)
        pairs = list(itertools.combinations(range(6), 2))
        verdicts = []
        for _ in range(500):
            density = rng.choice((0.3, 0.5, 0.7))
            verdicts.append(self.agree(6, [p for p in pairs if rng.random() < density]))
        assert 0 < sum(verdicts) < 500

    def test_tiny_graphs(self):
        assert not self.agree(1, [])
        assert not self.agree(2, [])
        assert self.agree(2, [(0, 1)])


def cut_capacity(graph, side):
    return sum(m for u, v, m in graph.edges() if (u in side) != (v in side))


class TestMinCut:
    """Minimum s-t cuts against networkx and, on small graphs, every cut."""

    def test_path_and_parallel_edges(self):
        g = graph_from_edges(4, [(0, 1, 3), (1, 2), (1, 2), (2, 3, 5)])
        assert g.min_cut(0, 3) == (2, frozenset({0, 1}))
        assert g.min_cut(3, 0) == (2, frozenset({2, 3}))

    def test_disconnected_and_loops(self):
        g = graph_from_edges(4, [(0, 0, 4), (0, 1, 2), (2, 3)])
        assert g.min_cut(0, 3) == (0, frozenset({0, 1}))

    def test_side_is_inclusion_minimal_on_ties(self):
        # cutting {0} or {0, 1} both cost 2; the smaller side is returned
        g = graph_from_edges(3, [(0, 1, 2), (1, 2, 2)])
        assert g.min_cut(0, 2) == (2, frozenset({0}))

    def test_bad_terminals(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(InvalidInputError):
            g.min_cut(0, 0)
        with pytest.raises(InvalidInputError):
            g.min_cut(0, 7)

    def test_against_networkx(self):
        rng = random.Random(505)
        for _ in range(300):
            n = rng.randint(2, 12)
            g, h = Multigraph(range(n)), nx.Graph()
            h.add_nodes_from(range(n))
            for _ in range(rng.randint(0, 3 * n)):
                u, v, m = rng.randrange(n), rng.randrange(n), rng.randint(1, 3)
                g.add_edge(u, v, m)
            for u, v, m in g.edges():
                if u != v:
                    h.add_edge(u, v, capacity=m)
            s, t = rng.sample(range(n), 2)
            value, side = g.min_cut(s, t)
            nx_value, (nx_side, _) = nx.minimum_cut(h, s, t)
            assert value == nx_value
            assert s in side and t not in side
            assert cut_capacity(g, side) == value
            assert side <= nx_side

    def test_side_lies_in_every_minimum_cut(self):
        rng = random.Random(606)
        for _ in range(150):
            g = helpers.random_multigraph(rng, max_vertices=8)
            n = len(g.vertices)
            s, t = rng.sample(range(n), 2)
            value, side = g.min_cut(s, t)
            rest = [v for v in range(n) if v not in (s, t)]
            minimum = []
            for mask in range(1 << len(rest)):
                cut = {s} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
                if cut_capacity(g, cut) == value:
                    minimum.append(cut)
                assert cut_capacity(g, cut) >= value
            assert side in minimum
            assert all(side <= cut for cut in minimum)


class TestMaxFlowKernel:
    """The descent's flow kernel on capacity rows, against networkx."""

    @staticmethod
    def cases():
        rng = random.Random(707)
        for _ in range(150):
            g = helpers.random_multigraph(rng, 12)
            yield g._rows, *rng.sample(range(len(g.vertices)), 2)
        for _ in range(150):
            rank = rng.randint(1, 8)
            family = helpers.random_family(rng, rank, 4, 6 * rank)
            x = rng.randint(1, rank)
            yield build_whitehead_graph(Alphabet(rank), family)._rows, 2 * x - 2, 2 * x - 1

    @staticmethod
    def least_source_side(rows, s, t):
        # the vertices reachable from s in networkx's residual network of a
        # maximum flow: the intersection of all minimum cut source sides
        h = nx.Graph()
        h.add_nodes_from(range(len(rows)))
        h.add_edges_from((i, j, {"capacity": m}) for i, row in enumerate(rows)
                         for j, m in row.items() if i < j)
        residual = edmonds_karp(h, s, t)
        open_arcs = nx.DiGraph((u, v) for u, v, arc in residual.edges(data=True)
                               if arc["capacity"] > arc["flow"])
        open_arcs.add_node(s)
        return nx.minimum_cut_value(h, s, t), {s} | nx.descendants(open_arcs, s)

    def test_against_networkx(self):
        for rows, s, t in self.cases():
            template = copy.deepcopy(rows)
            value, side = _max_flow(rows, s, t)
            assert rows == template
            assert (value, set(side)) == self.least_source_side(rows, s, t)
            for limit in range(-1, value + 3):
                stopped_at, stopped_side = _max_flow(rows, s, t, limit)
                assert rows == template
                if value >= limit:
                    assert stopped_side is None and limit <= stopped_at <= value
                else:
                    assert (stopped_at, stopped_side) == (value, side)


class TestDot:
    def test_dot_output(self):
        g = graph_from_edges(2, [(0, 1, 2)])
        dot = g.to_dot("demo")
        assert dot.startswith("graph demo {")
        assert dot.count('"0" -- "1"') == 2
