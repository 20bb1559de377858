"""Small undirected multigraph with the connectivity analyses we need.

Vertices are arbitrary hashables supplied in a fixed order, which makes
every derived output (components, articulation points, DOT text)
deterministic.  All state and every search are kept on vertex positions
in that order, as capacity rows: one dict per position from neighbour
positions to edge multiplicities.  Vertices come back only in returned
values.  The Whitehead-graph, one-endedness and star code build rows
directly and pass them to ``_search``, one Hopcroft-Tarjan pass that gives
components and cut vertices; it ignores multiplicities and loops.
Minimum cuts take multiplicities as capacities.
"""

from __future__ import annotations

from .errors import InvalidInputError


class Multigraph:
    """Undirected multigraph: vertex list plus edge multiplicities by position."""

    def __init__(self, vertices, allow_loops: bool = True):
        self._order = tuple(dict.fromkeys(vertices))
        self._index = {v: i for i, v in enumerate(self._order)}
        self._rows: list[dict[int, int]] = [{} for _ in self._order]
        self._allow_loops = allow_loops

    @classmethod
    def _from_rows(cls, vertices, rows) -> "Multigraph":
        """A loop-free graph whose capacity rows are ``rows``, taken as they are."""
        graph = cls(vertices, allow_loops=False)
        graph._rows = rows
        return graph

    def add_edge(self, u, v, count: int = 1) -> None:
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None:
            raise InvalidInputError(f"edge endpoint not a vertex: {u!r} -- {v!r}")
        if i == j and not self._allow_loops:
            raise InvalidInputError(f"loop at {u!r} not allowed")
        if count < 1:
            raise InvalidInputError("edge count must be positive")
        rows = self._rows
        rows[i][j] = rows[i].get(j, 0) + count
        if i != j:
            rows[j][i] = rows[j].get(i, 0) + count

    @property
    def vertices(self) -> tuple:
        return self._order

    def edges(self):
        """Edges as (u, v, multiplicity), in vertex order."""
        return [(self._order[i], self._order[j], m) for i, row in enumerate(self._rows)
                for j, m in sorted(row.items()) if i <= j]

    def total_edges(self) -> int:
        return sum(m for _, _, m in self.edges())

    def degrees(self) -> dict:
        """Edge-end count at every vertex, multiplicities included, loops twice."""
        return {v: sum(row.values()) + row.get(i, 0)
                for i, (v, row) in enumerate(zip(self._order, self._rows))}

    def min_cut(self, s, t) -> tuple[int, frozenset]:
        """Minimum s-t edge cut with multiplicities as capacities.

        Solved by ``_max_flow`` on the graph's capacity rows.  Returns the
        cut value and the source side: the vertices reachable from s in
        the residual graph of any maximum flow, contained in the source
        side of every minimum cut.  Loops never cross a cut.
        """
        source, sink = self._index.get(s), self._index.get(t)
        if source is None or sink is None or source == sink:
            raise InvalidInputError(f"min cut needs two distinct vertices: {s!r}, {t!r}")
        value, side = _max_flow(self._rows, source, sink)
        return value, frozenset(self._order[u] for u in side)

    def _search(self) -> tuple[tuple[frozenset, ...], tuple]:
        """Components in order of their first vertex and cut vertices in vertex order."""
        order = self._order
        components, cuts = _search(self._rows)
        return (tuple(frozenset(order[i] for i in c) for c in components),
                tuple(order[i] for i in cuts))

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


def _search(rows) -> tuple[list[list[int]], list[int]]:
    """Components of capacity rows ``rows[u]``, keyed by neighbour position,
    as lists of positions in order of their first position, and the sorted
    cut positions, from one iterative Hopcroft-Tarjan pass.  Multiplicities
    and loops are ignored."""
    disc, low = [-1] * len(rows), [0] * len(rows)
    found, components, cuts = [], [], set()
    for root in range(len(rows)):
        if disc[root] >= 0:
            continue
        first, root_children = len(found), 0
        disc[root] = low[root] = first
        found.append(root)
        stack = [(root, -1, iter(rows[root]))]
        while stack:
            u, parent, neighbours = stack[-1]
            for w in neighbours:
                if disc[w] < 0:
                    disc[w] = low[w] = len(found)
                    found.append(w)
                    stack.append((w, u, iter(rows[w])))
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
        components.append(found[first:])
    return components, sorted(cuts)


def _max_flow(rows, source, sink, limit=float("inf")) -> tuple[int, list | None]:
    """Maximum flow from ``source`` to ``sink`` on a copy of capacity rows
    ``rows[u][w]``: the direct edge and the two-edge paths first, then
    shortest residual paths (Edmonds-Karp).  Returns the value and the
    positions reachable from the source in the final residual graph, or,
    once the value reaches ``limit``, that value and None."""
    residual = [row.copy() for row in rows]
    # No search enters the source or leaves the sink, so the pre-push keeps
    # only forward capacities; a loop at the source meets no direct edge.
    out = residual[source]
    value = out.pop(sink, 0)
    for v, capacity in out.items():
        through = min(capacity, residual[v].get(sink, 0))
        if through:
            out[v] -= through
            residual[v][sink] -= through
            value += through
    while value < limit:
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
            return value, queue
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
    return value, None
