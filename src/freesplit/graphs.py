"""Small undirected multigraph with the connectivity analyses we need.

Vertices are arbitrary hashables supplied in a fixed order, which makes
every derived output (components, articulation points, DOT text)
deterministic.  All state and every search are kept on vertex positions
in that order; vertices come back only in returned values.  Connectivity
and cut vertices ignore multiplicities and loops; minimum cuts take
multiplicities as capacities.
"""

from __future__ import annotations

from .errors import InvalidInputError


class Multigraph:
    """Undirected multigraph: vertex list plus edge multiplicities."""

    def __init__(self, vertices, allow_loops: bool = True):
        self._order = tuple(dict.fromkeys(vertices))
        self._index = {v: i for i, v in enumerate(self._order)}
        self._mult: dict[tuple[int, int], int] = {}
        self._adj: list[set[int]] = [set() for _ in self._order]
        self._allow_loops = allow_loops

    def add_edge(self, u, v, count: int = 1) -> None:
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None:
            raise InvalidInputError(f"edge endpoint not a vertex: {u!r} -- {v!r}")
        if i == j and not self._allow_loops:
            raise InvalidInputError(f"loop at {u!r} not allowed")
        if count < 1:
            raise InvalidInputError("edge count must be positive")
        key = (i, j) if i <= j else (j, i)
        self._mult[key] = self._mult.get(key, 0) + count
        if i != j:
            self._adj[i].add(j)
            self._adj[j].add(i)

    @property
    def vertices(self) -> tuple:
        return self._order

    def edges(self):
        """Edges as (u, v, multiplicity), in vertex order."""
        order = self._order
        return [(order[i], order[j], m) for (i, j), m in sorted(self._mult.items())]

    def total_edges(self) -> int:
        return sum(self._mult.values())

    def degrees(self) -> dict:
        """Edge-end count at every vertex, multiplicities included, loops twice."""
        out = [0] * len(self._order)
        for (i, j), m in self._mult.items():
            out[i] += m
            out[j] += m
        return dict(zip(self._order, out))

    def min_cut(self, s, t) -> tuple[int, frozenset]:
        """Minimum s-t edge cut with multiplicities as capacities.

        Edmonds-Karp: augment along shortest residual paths until t is
        unreachable, on residual capacities kept as one dict row per
        vertex position.  Returns the cut value and the source side, the
        vertices reachable from s in the final residual graph.  That side
        is contained in the source side of every minimum cut.  Loops
        never cross a cut and are ignored.
        """
        source, sink = self._index.get(s), self._index.get(t)
        if source is None or sink is None or source == sink:
            raise InvalidInputError(f"min cut needs two distinct vertices: {s!r}, {t!r}")
        residual = [{} for _ in self._order]
        for (u, v), m in self._mult.items():
            if u != v:
                residual[u][v] = residual[v][u] = m
        value = 0
        while True:
            parent = {source: None}
            queue = [source]
            for u in queue:
                for w, capacity in residual[u].items():
                    if capacity and w not in parent:
                        parent[w] = u
                        queue.append(w)
                if sink in parent:
                    break
            if sink not in parent:
                return value, frozenset(self._order[u] for u in queue)
            path = []
            w = sink
            while w != source:
                path.append((parent[w], w))
                w = parent[w]
            push = min(residual[u][w] for u, w in path)
            for u, w in path:
                residual[u][w] -= push
                residual[w][u] += push
            value += push

    def _search(self) -> tuple[tuple[frozenset, ...], tuple]:
        """Components in order of their first vertex and cut vertices in
        vertex order, from one iterative Hopcroft-Tarjan pass."""
        order, adj = self._order, self._adj
        disc, low = [-1] * len(order), [0] * len(order)
        found, components, cuts = [], [], set()
        for root in range(len(order)):
            if disc[root] >= 0:
                continue
            first, root_children = len(found), 0
            disc[root] = low[root] = first
            found.append(root)
            stack = [(root, -1, iter(adj[root]))]
            while stack:
                u, parent, neighbours = stack[-1]
                for w in neighbours:
                    if disc[w] < 0:
                        disc[w] = low[w] = len(found)
                        found.append(w)
                        stack.append((w, u, iter(adj[w])))
                        break
                    if w != parent:
                        low[u] = min(low[u], disc[w])
                else:
                    stack.pop()
                    if parent == root:
                        root_children += 1
                    elif parent >= 0:
                        low[parent] = min(low[parent], low[u])
                        if low[u] >= disc[parent]:
                            cuts.add(parent)
            if root_children > 1:
                cuts.add(root)
            components.append(frozenset(order[i] for i in found[first:]))
        return tuple(components), tuple(order[i] for i in sorted(cuts))

    def components(self) -> tuple[frozenset, ...]:
        """Connected components in order of their first vertex, isolated vertices as singletons."""
        return self._search()[0]

    def articulation_points(self) -> tuple:
        """Cut vertices of each component, in vertex order."""
        return self._search()[1]

    def is_two_vertex_connected(self) -> tuple[bool, tuple]:
        """Decide 2-vertex connectivity; also report all cut vertices.

        The graph counts as 2-vertex connected when it is connected, has
        at least two vertices, and has no cut vertex.  In particular a
        single (possibly multiple) edge on two vertices qualifies, while
        a lone vertex does not.
        """
        components, cuts = self._search()
        return len(self._order) >= 2 and len(components) == 1 and not cuts, cuts

    def to_dot(self, name: str = "G", label=None) -> str:
        """DOT text; parallel edges are emitted individually."""
        label = label or str
        lines = [f"graph {name} {{"]
        for v in self._order:
            lines.append(f'  "{label(v)}";')
        for u, v, m in self.edges():
            for _ in range(m):
                lines.append(f'  "{label(u)}" -- "{label(v)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def bitmask_two_connected(rows) -> bool:
    """2-vertex connectivity of a simple graph given as adjacency bitmasks.

    Vertex i is adjacent to j when bit j of ``rows[i]`` is set.  The
    convention is ``Multigraph.is_two_vertex_connected``'s: connected, at
    least two vertices, and no cut vertex, i.e. still connected after
    deleting any one vertex.
    """
    everyone = (1 << len(rows)) - 1
    return len(rows) >= 2 and _bitmask_connected(rows, everyone) and all(
        _bitmask_connected(rows, everyone & ~(1 << x)) for x in range(len(rows)))


def _bitmask_connected(rows, alive) -> bool:
    """Whether the vertices in the bitmask ``alive`` induce a connected graph."""
    seen = frontier = alive & -alive
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows[low.bit_length() - 1] & alive & ~seen
        seen |= new
        frontier |= new
    return seen == alive
