"""Axes of conjugates in the Cayley tree and the subtree analyses on them.

An axis is the invariant line of a conjugate of a family word.  It is
represented by its nearest vertex to the origin (``base``) together
with the periodic letter sequence read from the base along the line in
the lexicographically smaller of the two directions (``period``).  Two
axis objects are equal exactly when they describe the same line; the
period is anchored at the base, so it is a specific rotation of the
generating word or of its inverse, not a rotation class.

Enumeration generates each line meeting the ball once, from its base.
The base of such a line is its nearest vertex to the origin, so it lies
in the ball; conversely a vertex u and a period p, read forward as p^oo
and backward as (p^-1)^oo, span a line based at u exactly when neither
direction cancels against the last letter of u.  An axis keeps only
(base, period, radius): its ball trace, its edges and its vertices at a
given distance are read off those letters when asked for.

The subtree analysis computes, for a finite subtree S, the intervals
axis-by-axis, the interval-gluing graph on interval endpoints, and the
partition of carrier vertices induced by joining the two endpoints of
every interval.  Carrier vertices (vertices of S with a tree direction
leaving S) stand in for the ends of the tree that project onto them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidInputError
from .graphs import Multigraph
from .tree import TreeBall, build_ball, DEFAULT_VERTEX_CAP
from .words import Alphabet, CyclicWord, Word, invert_word, word_key


@dataclass(frozen=True, slots=True)
class Axis:
    """A line in the Cayley tree, canonically keyed, traced in a ball of ``radius``."""

    base: Word
    period: Word
    radius: int = field(compare=False)

    @property
    def key(self):
        return (self.base, self.period)

    def sort_key(self):
        return (len(self.base), word_key(self.base), word_key(self.period))

    def _rays(self, reach: int) -> tuple[Word, Word]:
        """The first ``reach`` letters of period^oo and of (period^-1)^oo."""
        repeats = reach // len(self.period) + 1
        return ((self.period * repeats)[:reach],
                (invert_word(self.period) * repeats)[:reach])

    @property
    def reach(self) -> int:
        """Steps from the base to the ball boundary in either direction."""
        return self.radius - len(self.base)

    @property
    def trace(self) -> tuple[Word, ...]:
        """The line's vertices in the ball, from the far end against the period."""
        u, reach = self.base, self.reach
        forward, backward = self._rays(reach)
        return (tuple(u + backward[:k] for k in range(reach, 0, -1)) + (u,)
                + tuple(u + forward[:k] for k in range(1, reach + 1)))

    def edges(self) -> set[frozenset]:
        """Unordered vertex pairs of the trace path."""
        u, reach = self.base, self.reach
        return {frozenset((u + ray[:k - 1], u + ray[:k]))
                for ray in self._rays(reach) for k in range(1, reach + 1)}

    def vertices_at(self, distance: int) -> tuple[Word, ...]:
        """The (up to two) line vertices at the given distance from the origin.

        Read from the base outward, so it works at any distance, not
        just within the ball.
        """
        steps = distance - len(self.base)
        if steps < 0:
            return ()
        if steps == 0:
            return (self.base,)
        return tuple(self.base + ray for ray in self._rays(steps))


def enumerate_axes(family, ball: TreeBall) -> tuple[Axis, ...]:
    """All distinct axes of conjugates of family words meeting the ball.

    Each line is generated once, from its base u: for every canonical
    period p (a rotation of a family word or of its inverse, whichever
    is smaller under ``word_key``), (u, p) is a line based at u exactly
    when p does not start with u's last letter inverted and does not end
    with u's last letter.  A word, its inverse and its conjugates give
    the same periods, so their lines are generated once; a proper power
    keeps its own, longer periods.  The ball lists its vertices in
    (length, ``word_key``) order and the periods are sorted once, so the
    axes come out in ``Axis.sort_key`` order.
    """
    family = tuple(family)
    for w in family:
        if not isinstance(w, CyclicWord):
            raise InvalidInputError(f"family members must be CyclicWord, got {w!r}")
        ball.alphabet.validate_letters(w.letters)
    periods = sorted(
        {min(r, invert_word(r), key=word_key) for w in family for r in w.rotations()},
        key=word_key,
    )
    admissible = {
        x: [p for p in periods if p[0] != -x and p[-1] != x] for x in ball.alphabet.letters()
    }
    radius = ball.radius
    axes = []
    for u in ball.vertices:
        for p in admissible[u[-1]] if u else periods:
            axes.append(Axis(u, p, radius))
    return tuple(axes)


def edge_arc_count(edge, axes) -> int:
    """Number of distinct axes whose ball trace contains the edge."""
    target = frozenset(tuple(v) for v in edge)
    return sum(1 for axis in axes if target in axis.edges())


def _spans(axes):
    """(base, reach, forward ray, backward ray) of every axis with a ball edge.

    Each period's rays are built once, ``radius`` letters long, and an
    axis reads only their first ``reach`` letters.
    """
    rays = {}
    for axis in axes:
        reach = axis.reach
        if reach > 0:
            key = (axis.period, axis.radius)
            if key not in rays:
                rays[key] = axis._rays(axis.radius)
            yield (axis.base, reach) + rays[key]


def edge_counts(axes) -> dict[frozenset, int]:
    """Per-edge axis counts over all traced edges.

    Every traced edge joins a vertex to its parent, so axes are counted
    per child vertex, read outward from each base.
    """
    children: dict[Word, int] = {}
    for u, reach, forward, backward in _spans(axes):
        for ray in (forward, backward):
            for k in range(1, reach + 1):
                v = u + ray[:k]
                children[v] = children.get(v, 0) + 1
    return {frozenset((v[:-1], v)): n for v, n in children.items()}


# ---------------------------------------------------------------------------
# Star graphs and the 2-vertex-connectivity certificate


def _direction_pairs(axes):
    """For each vertex interior to some trace, the letter pairs of axes through it.

    An axis passing a vertex p reads some letter u into p and some
    letter v out of it; the recorded pair is {u, v^-1}, matching the
    Whitehead-graph rule for the cyclic substring ``u v``.  The pair is
    independent of the traversal direction.  Pairs are read from the
    letters around each vertex, oriented as the trace runs: from the far
    end against the period to the far end along it.
    """
    pairs: dict[Word, list[tuple[int, int]]] = {}
    for u, reach, forward, backward in _spans(axes):
        pairs.setdefault(u, []).append((-backward[0], -forward[0]))
        for k in range(1, reach):
            pairs.setdefault(u + forward[:k], []).append((forward[k - 1], -forward[k]))
            pairs.setdefault(u + backward[:k], []).append((-backward[k], backward[k - 1]))
    return pairs


def star_graph(ball: TreeBall, axes, center: Word) -> Multigraph:
    """The interval-gluing graph of the star of ``center``, on letters.

    Vertices are all 2n letters; each axis through the center reading
    the letters u in, v out contributes one edge {u, v^-1}.  Under the
    identification of the letter x with the neighbour center.x^-1 this
    is the gluing graph of the star, and it coincides with the
    word-level Whitehead graph of the family.
    """
    center = tuple(center)
    if len(center) > ball.radius - 1:
        raise InvalidInputError(f"star of {center} does not lie inside the ball")
    return _star(ball.alphabet.letters(), _direction_pairs(axes).get(center, ()))


def _star(letters, pairs) -> Multigraph:
    graph = Multigraph(letters, allow_loops=False)
    for d_in, d_out in pairs:
        graph.add_edge(d_in, d_out)
    return graph


@dataclass(frozen=True)
class StarCertificate:
    """Outcome of the all-stars 2-vertex-connectivity check.

    ``certified`` means every interior star graph is 2-vertex connected,
    which certifies indecomposability of the arc system.  A failure
    names the first failing vertex but proves nothing by itself.
    """

    certified: bool
    witness: Word | None = None

    def __bool__(self):
        return self.certified


def lemma33_certificate(ball: TreeBall, axes) -> StarCertificate:
    """Check 2-vertex connectivity of the star graph at every interior vertex."""
    if ball.radius < 2:
        raise InvalidInputError("certificate needs radius >= 2")
    pairs = _direction_pairs(axes)
    letters = ball.alphabet.letters()
    for v in ball.interior_vertices():
        ok, _ = _star(letters, pairs.get(v, ())).is_two_vertex_connected()
        if not ok:
            return StarCertificate(False, v)
    return StarCertificate(True, None)


# ---------------------------------------------------------------------------
# General subtree analysis


@dataclass(frozen=True)
class Interval:
    """A nontrivial intersection of an axis with a subtree: a vertex path."""

    axis: Axis
    path: tuple[Word, ...]

    @property
    def endpoints(self) -> tuple[Word, Word]:
        return self.path[0], self.path[-1]


@dataclass(frozen=True)
class SubtreeAnalysis:
    """The projection data of a finite subtree S.

    ``intervals`` holds, for each axis meeting S in at least one edge,
    the intersection path and its endpoint pair.  ``gs_graph`` is the
    interval-gluing multigraph on the endpoint vertices.  ``classes``
    partitions the carrier vertices by the relation generated by joining
    interval endpoints; carriers met by no interval stay singletons.
    """

    subtree: frozenset[Word]
    carriers: frozenset[Word]
    intervals: tuple[Interval, ...]
    gs_graph: Multigraph
    classes: tuple[frozenset[Word], ...]

    def class_count(self) -> int:
        return len(self.classes)


def analyze_subtree(ball: TreeBall, subtree_vertices, axes) -> SubtreeAnalysis:
    """Compute intervals, the gluing graph, and carrier classes for S.

    S must be a connected set of ball vertices lying at distance at most
    radius - 1, so that every incident tree edge is visible in the ball
    and interval endpoints are genuine.
    """
    subtree = frozenset(tuple(v) for v in subtree_vertices)
    if not subtree:
        raise InvalidInputError("subtree must be nonempty")
    for v in subtree:
        if v not in ball:
            raise InvalidInputError(f"vertex {v} not in the ball")
        if len(v) > ball.radius - 1:
            raise InvalidInputError(
                f"vertex {v} too close to the ball boundary for a safe analysis"
            )
    root = min(subtree, key=lambda v: (len(v), word_key(v)))
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in ball.neighbors(u):
            if w in subtree and w not in seen:
                seen.add(w)
                stack.append(w)
    if seen != subtree:
        raise InvalidInputError("subtree vertex set is not connected")

    degree_full = 2 * ball.alphabet.rank
    carriers = frozenset(
        v for v in subtree
        if sum(1 for w in ball.neighbors(v) if w in subtree) < degree_full
    )

    intervals = []
    for axis in axes:
        inside = [i for i, v in enumerate(axis.trace) if v in subtree]
        if len(inside) < 2:
            continue
        lo, hi = inside[0], inside[-1]
        if hi - lo != len(inside) - 1:
            raise InvalidInputError("axis trace meets the subtree non-contiguously")
        intervals.append(Interval(axis, axis.trace[lo : hi + 1]))

    endpoint_vertices = sorted(
        {p for iv in intervals for p in iv.endpoints},
        key=lambda v: (len(v), word_key(v)),
    )
    gs_graph = Multigraph(endpoint_vertices, allow_loops=False)
    for iv in intervals:
        gs_graph.add_edge(*iv.endpoints)

    ordered_carriers = sorted(carriers, key=lambda v: (len(v), word_key(v)))
    class_graph = Multigraph(ordered_carriers, allow_loops=True)
    for iv in intervals:
        p, q = iv.endpoints
        if p not in carriers or q not in carriers:
            raise InvalidInputError("interval endpoint is not a carrier vertex")
        class_graph.add_edge(p, q)
    classes = class_graph.components()

    return SubtreeAnalysis(subtree, carriers, tuple(intervals), gs_graph, classes)


# ---------------------------------------------------------------------------
# Class-count profile across nested balls


def class_count_profile(
    alphabet: Alphabet,
    family,
    max_radius: int,
    cap: int = DEFAULT_VERTEX_CAP,
) -> tuple[tuple[int, int], ...]:
    """Carrier-class counts for the balls of radius 1..max_radius.

    The count at radius r is the number of classes of sphere vertices
    under the relation joining the two ball-exit vertices of every axis
    whose base lies strictly inside the sphere.  Counts never decrease
    with the radius; any value >= 2 certifies decomposability, while an
    all-ones profile is evidence (not proof) of indecomposability.
    """
    if max_radius < 1:
        raise InvalidInputError("max_radius must be >= 1")
    ball = build_ball(alphabet, max_radius, cap=cap)
    axes = enumerate_axes(family, ball)
    profile = []
    for radius in range(1, max_radius + 1):
        sphere = ball.sphere(radius)
        index = {v: i for i, v in enumerate(sphere)}
        parent = list(range(len(sphere)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for axis in axes:
            if len(axis.base) >= radius:
                continue
            exits = axis.vertices_at(radius)
            a, b = find(index[exits[0]]), find(index[exits[1]])
            if a != b:
                parent[a] = b
        count = sum(1 for i in range(len(sphere)) if find(i) == i)
        profile.append((radius, count))
    return tuple(profile)
