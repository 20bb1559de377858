"""Small undirected multigraph with the connectivity analyses we need.

Vertices are arbitrary hashables supplied in a fixed order, which makes
every derived output (components, articulation points, DOT text)
deterministic.  Connectivity and articulation points are computed on the
simple-graph shadow: multiplicities and loops have no effect on either.
Minimum cuts take multiplicities as capacities.
"""

from __future__ import annotations

from .errors import InvalidInputError


class Multigraph:
    """Undirected multigraph: vertex list plus edge multiplicities."""

    def __init__(self, vertices, allow_loops: bool = True):
        self._order = list(dict.fromkeys(vertices))
        self._index = {v: i for i, v in enumerate(self._order)}
        self._mult: dict[tuple, int] = {}
        self._adj: dict[object, set] = {v: set() for v in self._order}
        self._allow_loops = allow_loops

    def add_edge(self, u, v, count: int = 1) -> None:
        if u not in self._index or v not in self._index:
            raise InvalidInputError(f"edge endpoint not a vertex: {u!r} -- {v!r}")
        if u == v and not self._allow_loops:
            raise InvalidInputError(f"loop at {u!r} not allowed")
        if count < 1:
            raise InvalidInputError("edge count must be positive")
        key = (u, v) if self._index[u] <= self._index[v] else (v, u)
        self._mult[key] = self._mult.get(key, 0) + count
        if u != v:
            self._adj[u].add(v)
            self._adj[v].add(u)

    @property
    def vertices(self) -> tuple:
        return tuple(self._order)

    def edges(self):
        """Edges as (u, v, multiplicity), in vertex order."""
        return sorted(
            ((u, v, m) for (u, v), m in self._mult.items()),
            key=lambda e: (self._index[e[0]], self._index[e[1]]),
        )

    def total_edges(self) -> int:
        return sum(self._mult.values())

    def neighbors(self, v) -> set:
        return set(self._adj[v])

    def degrees(self) -> dict:
        """Edge-end count at every vertex, multiplicities included, loops twice."""
        out = dict.fromkeys(self._order, 0)
        for (a, b), m in self._mult.items():
            out[a] += m
            out[b] += m
        return out

    def min_cut(self, s, t) -> tuple[int, frozenset]:
        """Minimum s-t edge cut with multiplicities as capacities.

        Edmonds-Karp: augment along shortest residual paths until t is
        unreachable.  Returns the cut value and the source side, the
        vertices reachable from s in the final residual graph.  That side
        is contained in the source side of every minimum cut.  Loops
        never cross a cut and are ignored.
        """
        if s not in self._index or t not in self._index or s == t:
            raise InvalidInputError(f"min cut needs two distinct vertices: {s!r}, {t!r}")
        residual = {}
        for (u, v), m in self._mult.items():
            if u != v:
                residual[u, v] = residual[v, u] = m
        value = 0
        while True:
            parent = {s: None}
            queue = [s]
            for u in queue:
                for w in self._adj[u]:
                    if w not in parent and residual[u, w]:
                        parent[w] = u
                        queue.append(w)
                if t in parent:
                    break
            if t not in parent:
                return value, frozenset(parent)
            path = []
            w = t
            while w != s:
                path.append((parent[w], w))
                w = parent[w]
            push = min(residual[e] for e in path)
            for u, w in path:
                residual[u, w] -= push
                residual[w, u] += push
            value += push

    def components(self) -> tuple[frozenset, ...]:
        """Connected components, isolated vertices as singletons."""
        seen = set()
        out = []
        for start in self._order:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return tuple(out)

    def articulation_points(self) -> tuple:
        """Cut vertices of each component (Hopcroft-Tarjan, iterative)."""
        disc: dict[object, int] = {}
        low: dict[object, int] = {}
        parent: dict[object, object] = {}
        cuts = set()
        timer = 0
        for root in self._order:
            if root in disc:
                continue
            parent[root] = None
            root_children = 0
            stack = [(root, iter(sorted(self._adj[root], key=self._index.__getitem__)))]
            disc[root] = low[root] = timer
            timer += 1
            while stack:
                u, it = stack[-1]
                advanced = False
                for w in it:
                    if w not in disc:
                        parent[w] = u
                        if u == root:
                            root_children += 1
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, iter(sorted(self._adj[w], key=self._index.__getitem__))))
                        advanced = True
                        break
                    elif w != parent[u]:
                        low[u] = min(low[u], disc[w])
                if not advanced:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[u])
                        if p != root and low[u] >= disc[p]:
                            cuts.add(p)
            if root_children > 1:
                cuts.add(root)
        return tuple(sorted(cuts, key=self._index.__getitem__))

    def is_two_vertex_connected(self) -> tuple[bool, tuple]:
        """Decide 2-vertex connectivity; also report all cut vertices.

        The graph counts as 2-vertex connected when it is connected, has
        at least two vertices, and has no cut vertex.  In particular a
        single (possibly multiple) edge on two vertices qualifies, while
        a lone vertex does not.
        """
        cuts = self.articulation_points()
        if len(self._order) < 2:
            return False, cuts
        if len(self.components()) != 1:
            return False, cuts
        return (len(cuts) == 0), cuts

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
