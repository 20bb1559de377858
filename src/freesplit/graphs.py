"""Small undirected multigraph with the connectivity analyses we need.

Vertices are arbitrary hashables supplied in a fixed order, which makes
every derived output (components, articulation points, DOT text)
deterministic.  Connectivity and articulation points are computed on the
simple-graph shadow: multiplicities and loops have no effect on either.
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

    def _edge_key(self, u, v):
        iu, iv = self._index[u], self._index[v]
        return (u, v) if iu <= iv else (v, u)

    def add_edge(self, u, v, count: int = 1) -> None:
        if u not in self._index or v not in self._index:
            raise InvalidInputError(f"edge endpoint not a vertex: {u!r} -- {v!r}")
        if u == v and not self._allow_loops:
            raise InvalidInputError(f"loop at {u!r} not allowed")
        if count < 1:
            raise InvalidInputError("edge count must be positive")
        key = self._edge_key(u, v)
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

    def multiplicity(self, u, v) -> int:
        if u not in self._index or v not in self._index:
            return 0
        return self._mult.get(self._edge_key(u, v), 0)

    def total_edges(self) -> int:
        return sum(self._mult.values())

    def neighbors(self, v) -> set:
        return set(self._adj[v])

    def degree(self, v) -> int:
        """Edge-end count at v, multiplicities included, loops twice."""
        total = 0
        for (a, b), m in self._mult.items():
            if a == v:
                total += m
            if b == v:
                total += m
        return total

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

