"""Lines of conjugates in the Cayley tree and the subtree analyses on them.

A line is the invariant axis of a conjugate of a family word, keyed by
its nearest vertex to the origin (its base) and the letters read from
the base along it in the lexicographically smaller direction (its
period, a rotation of the word or of its inverse).  A vertex u and a
period p, read forward as p^oo and backward as (p^-1)^oo, span a line
based at u exactly when neither direction cancels the last letter of u.

The generator ``_lines`` yields each base once: its id (see ``tree``),
last letter, reach (radius - |base|) and row, the ``_Rays`` of the periods
spanning a line from it, whose one walk gives a line's vertex ids and star
bits by one multiply-add each, so a line costs only the steps it walks.
It builds no object per line and skips the bases on the outer sphere,
most of the ball, whose lines have no edge in it.  The per-edge counts,
the star graph, the star certificate and the class profile each read that
stream in one loop: counts and stars are flat lists indexed by id, a star
is an int with one bit per letter pair that ``_star_rows`` decodes for
``graphs._search``, and the profile is a union-find over ids.  Only
``enumerate_axes`` builds ``Axis`` objects, one per line, sphere bases
included, for the library and the subtree analysis, never for the CLI;
the functions that take axes turn them into one-ray rows and refuse axes
traced in a ball of another rank or radius.

The subtree analysis computes, for a finite subtree S, the intervals
axis-by-axis, the interval-gluing graph on interval endpoints, and the
partition of carrier vertices induced by joining the two endpoints of
every interval.  Carrier vertices (vertices of S with a tree direction
leaving S) stand in for the ends of the tree that project onto them.
"""

from __future__ import annotations

from collections import Counter
from itertools import count, cycle, islice, repeat

from .errors import DEFAULT_VERTEX_CAP, InvalidInputError
from .graphs import Multigraph, _search
from .tree import TreeBall, build_ball, child_step
from .words import Alphabet, Word, _Record, _family_letters, invert_word, letter_index, word_key


class _Rays:
    """A period's two rays in a ball, as one walk of vertex ids and star bits.

    The forward ray reads period^oo from the base, the backward ray
    (period^-1)^oo; ``first`` holds their first letters' indices.  A line
    reading u into a vertex and v out of it gives the vertex the star pair
    {u, v^-1} (the Whitehead-graph rule for ``u v``), coded a * 2n + b by
    letter index with a < b, so that equal stars are equal ints whichever
    way their lines pass, and kept as the bit ``1 << code``; ``origin`` is
    the base's.
    A ray's first vertex off a base u has the id (2n-1)·u + ``child_step``
    of u's last letter and the ray's first (``_firsts``), and its j-th the
    id (2n-1)^(j-1) · first + e_j, e_j fixed by the ray alone: ``walk`` lists
    ((2n-1)^(j-1), e_j and bit forward, e_j and bit backward) for j = 1 ..
    radius, and a line of reach k, from any base, reads its first k entries.
    """

    __slots__ = ("ball", "period", "first", "origin", "walk")

    def __init__(self, period: Word, ball: TreeBall):
        self.ball, self.period = ball, period
        m, branch = 2 * ball.alphabet.rank, ball.branch
        # the letter index of x^-1 is that of x with its last bit flipped
        forward = [letter_index(x) for x in period]
        backward = [x ^ 1 for x in reversed(forward)]
        self.first = forward[0], backward[0]
        # round the period, per y read after x: child_step(x, y), bit of {x, y^-1}
        steps = [[(2 + y - (y > x ^ 1), 1 << (x * m + (y ^ 1) if x < y ^ 1 else (y ^ 1) * m + x))
                  for x, y in zip(ray, ray[1:] + ray[:1])] for ray in (forward, backward)]
        self.origin = steps[0][-1][1]  # the base reads the period's last letter in
        self.walk, p, e, g = [], 1, 0, 0
        for (s, f), (t, b) in islice(zip(cycle(steps[0]), cycle(steps[1])), ball.radius):
            self.walk.append((p, e, f, g, b))
            p, e, g = branch * p, branch * e + s, branch * g + t


def _firsts(base_id: int, last: int, rays: _Rays) -> tuple[int, int]:
    """A line's first vertex ids off its base, forward and backward (the loops inline it)."""
    base = rays.ball.branch * base_id
    return base + child_step(last, rays.first[0]), base + child_step(last, rays.first[1])


class Axis(_Record):
    """A line in the Cayley tree, keyed by (base, period), traced in a ball.

    ``line`` is (base id, last letter index, reach, rays) for one ``_Rays``
    of a ``_lines`` row.  The base's word is decoded from its id when read.
    """

    __slots__ = ("base_id", "period", "line")

    def __init__(self, line):
        super().__init__(line[0], line[3].period, line)

    @property
    def base(self) -> Word:
        return self.line[3].ball.vertices[self.base_id]

    def _key(self) -> tuple:
        return self.base, self.period

    @property
    def trace(self) -> tuple[Word, ...]:
        """The line's vertices in the ball, from the far end against the period.

        Only the far end is decoded from its id; each next vertex is the one
        before less its last letter, when it is the parent, or else plus one.
        """
        ids, vertices = _trace_ids(self.line), self.line[3].ball.vertices
        branch, word = vertices.ball.branch, vertices[ids[0]]
        trace = [word]
        for u, v in zip(ids, ids[1:]):
            d = v - branch * u - 2  # v's digit, when v is u's child
            if d < -1:
                word = word[:-1]  # v is u's parent
            else:
                last = letter_index(word[-1]) if word else -1
                word += (vertices.letters[d + (d >= last ^ 1)],)  # tree.child_step inverted
            trace.append(word)
        return tuple(trace)


def _lines(family, ball: TreeBall, sphere: bool = False):
    """(base id, last, reach, row) per base vertex of the family's lines in the ball.

    ``last`` is the letter index of the base's last letter (-1 at the root),
    ``reach`` is radius - |base|, 0 only with ``sphere``, and ``row`` holds
    the ``_Rays`` of the periods that span a line from the base.  A period
    is a rotation of a family word or of its inverse, whichever is smaller
    under ``word_key``, so conjugates and inverses share lines and a proper
    power keeps its own.  Bases come by id, which is (length, ``word_key``)
    order, and a row by period ``word_key``.
    """
    family = tuple(family)
    _family_letters(ball.alphabet, family)
    periods = {min(r, invert_word(r), key=word_key) for w in family for r in w.rotations()}
    rays = tuple(_Rays(p, ball) for p in sorted(periods, key=word_key))
    m = 2 * ball.alphabet.rank
    # rows by the last letter index of the base, the root's last (index -1):
    # a period extends a base when neither ray's first letter cancels it, so
    # only the rows of letters that some first letter cancels drop a period
    admissible = [rays] * (m + 1)
    for x in {f ^ 1 for r in rays for f in r.first}:
        admissible[x] = tuple(r for r in rays if x ^ 1 not in r.first)
    v = 0
    for reach, level in zip(range(ball.radius, -1 if sphere else 0, -1), ball.levels()):
        yield from zip(count(v), level, repeat(reach), map(admissible.__getitem__, level))
        v += len(level)


def _axis_lines(ball: TreeBall, axes):
    """The axes with an edge in the ball as one-ray rows; refuses another ball's axes."""
    shape = (ball.alphabet.rank, ball.radius)
    for axis in axes:
        base_id, last, reach, rays = axis.line
        if rays.ball is not ball and (rays.ball.alphabet.rank, rays.ball.radius) != shape:
            raise InvalidInputError(f"axis not in a ball of rank {shape[0]}, radius {shape[1]}")
        if reach > 0:
            yield base_id, last, reach, (rays,)


def _trace_ids(line) -> list[int]:
    """The ids of an ``Axis.line``'s vertices in the ball, from the far end
    against the period."""
    base_id, last, reach, rays = line
    head, tail = _firsts(base_id, last, rays)
    walk = [(p * head + e, p * tail + g) for p, e, _, g, _ in islice(rays.walk, reach)]
    return [b for _, b in reversed(walk)] + [base_id] + [f for f, _ in walk]


def enumerate_axes(family, ball: TreeBall) -> tuple[Axis, ...]:
    """All distinct axes of conjugates of family words meeting the ball, in ``_lines`` order."""
    return tuple(Axis((v, last, reach, rays))
                 for v, last, reach, row in _lines(family, ball, sphere=True) for rays in row)


def _child_counts(ball: TreeBall, lines) -> list[int]:
    counts = [0] * len(ball.vertices)
    for base_id, last, reach, row in lines:
        step, inverse = ball.branch * base_id + 2, last ^ 1
        for rays in row:
            x, y = rays.first
            head, tail = step + x - (x > inverse), step + y - (y > inverse)
            counts[head] += 1
            counts[tail] += 1
            if reach > 1:
                for p, e, _, g, _ in islice(rays.walk, 1, reach):
                    counts[p * head + e] += 1
                    counts[p * tail + g] += 1
    return counts


def child_counts(ball: TreeBall, axes) -> list[int]:
    """Axes through each ball edge, by the id of the edge's child vertex (0 at the root)."""
    return _child_counts(ball, _axis_lines(ball, axes))


def edge_arc_count(edge, axes) -> int:
    """Number of distinct axes whose ball trace contains the edge."""
    return edge_counts(axes).get(frozenset(tuple(v) for v in edge), 0)


def edge_counts(axes) -> dict[frozenset, int]:
    """Per-edge axis counts over all traced edges, keyed by {parent, child}."""
    axes = tuple(axes)
    if not axes:
        return {}
    ball = axes[0].line[3].ball
    return {frozenset((w[:-1], w)): n
            for v, n in enumerate(child_counts(ball, axes)) if n for w in [ball.vertices[v]]}


# ---------------------------------------------------------------------------
# Star graphs and the 2-vertex-connectivity certificate


def _star_graph(ball: TreeBall, lines, center: Word) -> Multigraph:
    center = tuple(center)
    target = ball.index(center)
    if target is None or len(center) > ball.radius - 1:
        raise InvalidInputError(f"star of {center} does not lie inside the ball")
    bits = []
    for base_id, last, reach, row in lines:
        # a line meets the center's sphere this many steps out from its base
        steps = reach - ball.radius + len(center)
        if base_id == target:
            bits += [rays.origin for rays in row]
        elif steps > 0:
            for rays in row:
                p, e, f, g, b = rays.walk[steps - 1]
                head, tail = _firsts(base_id, last, rays)
                bits += [bit for v, bit in [(p * head + e, f), (p * tail + g, b)] if v == target]
    letters = ball.alphabet.letters()
    return Multigraph._from_rows(letters, _star_rows(bits, len(letters)))


def _star_rows(stars, m: int) -> list[dict[int, int]]:
    """Capacity rows over m letters with one edge {a, b} for each pair bit
    a * m + b set in each of the ints ``stars`` (see ``_Rays``)."""
    rows = [{} for _ in range(m)]
    for star in stars:
        while star:
            low = star & -star
            a, b = divmod(low.bit_length() - 1, m)
            rows[a][b] = rows[a].get(b, 0) + 1
            rows[b][a] = rows[b].get(a, 0) + 1
            star ^= low
    return rows


def star_graph(ball: TreeBall, axes, center: Word) -> Multigraph:
    """The interval-gluing graph of the star of ``center``, on letters.

    Vertices are all 2n letters; each axis through the center reading
    the letters u in, v out contributes one edge {u, v^-1}.  Under the
    identification of the letter x with the neighbour center.x^-1 this
    is the gluing graph of the star, and it coincides with the
    word-level Whitehead graph of the family.
    """
    return _star_graph(ball, _axis_lines(ball, axes), center)


class StarCertificate(_Record):
    """Outcome of the all-stars 2-vertex-connectivity check.

    ``certified`` means every interior star graph is 2-vertex connected,
    which certifies indecomposability of the arc system.  A failure
    names the first failing vertex but proves nothing by itself.
    """

    __slots__ = ("certified", "witness")

    def __init__(self, certified: bool, witness: Word | None = None):
        super().__init__(certified, witness)

    def __bool__(self):
        return self.certified


def _certificate(ball: TreeBall, lines) -> StarCertificate:
    if ball.radius < 2:
        raise InvalidInputError("certificate needs radius >= 2")
    m = 2 * ball.alphabet.rank
    stars, masks = [0] * ball.offsets[ball.radius], {}
    for base_id, last, reach, row in lines:
        # each origin is one bit, so the distinct ones sum to their union
        stars[base_id] |= masks.get(row) or masks.setdefault(row, sum({r.origin for r in row}))
        if reach > 1:
            step, inverse = ball.branch * base_id + 2, last ^ 1
            for rays in row:
                x, y = rays.first
                head, tail = step + x - (x > inverse), step + y - (y > inverse)
                for p, e, f, g, b in islice(rays.walk, reach - 1):
                    stars[p * head + e] |= f
                    stars[p * tail + g] |= b
    # distinct masks by first vertex: a failing one first met is at the first failing vertex
    for star in dict.fromkeys(stars):
        components, cuts = _search(_star_rows((star,), m))
        if len(components) != 1 or cuts:
            return StarCertificate(False, ball.vertices[stars.index(star)])
    return StarCertificate(True, None)


def lemma33_certificate(ball: TreeBall, axes) -> StarCertificate:
    """Check 2-vertex connectivity of the star graph at every interior vertex.

    Each interior star is one int per vertex id, with bit a * 2n + b set
    for each of its pairs {a, b}, a < b (see ``_Rays``).  Connectivity
    ignores multiplicities, and the verdict depends on that mask alone, so
    each distinct mask is decoded once, as ``star_graph`` decodes its pairs,
    and tested by the one search of ``graphs``.
    """
    return _certificate(ball, _axis_lines(ball, axes))


# ---------------------------------------------------------------------------
# General subtree analysis


class Interval(_Record):
    """A nontrivial intersection of an axis with a subtree: a vertex path."""

    __slots__ = ("axis", "path")

    @property
    def endpoints(self) -> tuple[Word, Word]:
        return self.path[0], self.path[-1]


class SubtreeAnalysis(_Record):
    """The projection data of a finite subtree S.

    ``intervals`` holds, for each axis meeting S in at least one edge,
    the intersection path and its endpoint pair.  ``gs_graph`` is the
    interval-gluing multigraph on the endpoint vertices.  ``classes``
    partitions the carrier vertices by the relation generated by joining
    interval endpoints; carriers met by no interval stay singletons.
    """

    __slots__ = ("subtree", "carriers", "intervals", "gs_graph", "classes")


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
    ordered = sorted(subtree, key=lambda v: (len(v), word_key(v)))
    # the first vertex is the only one whose parent can be outside a connected S
    if any(v[:-1] not in subtree for v in ordered[1:]):
        raise InvalidInputError("subtree vertex set is not connected")
    # both ends of each tree edge in S; every vertex of S is interior, so
    # degree 2n means no tree edge leaves S
    degrees = Counter(x for v in ordered[1:] for x in (v[:-1], v))
    ordered_carriers = [v for v in ordered if degrees[v] < 2 * ball.alphabet.rank]
    carriers = frozenset(ordered_carriers)

    intervals = []
    for axis in axes:
        trace = axis.trace
        inside = [i for i, v in enumerate(trace) if v in subtree]
        if len(inside) < 2:
            continue
        lo, hi = inside[0], inside[-1]
        if hi - lo != len(inside) - 1:
            raise InvalidInputError("axis trace meets the subtree non-contiguously")
        intervals.append(Interval(axis, trace[lo : hi + 1]))

    endpoint_vertices = sorted(
        {p for iv in intervals for p in iv.endpoints},
        key=lambda v: (len(v), word_key(v)),
    )
    gs_graph = Multigraph(endpoint_vertices, allow_loops=False)
    for iv in intervals:
        gs_graph.add_edge(*iv.endpoints)
    if not carriers.issuperset(endpoint_vertices):
        raise InvalidInputError("interval endpoint is not a carrier vertex")
    # the gluing components and the unglued carriers, in order of first carrier
    glued = {v: c for c in gs_graph.components() for v in c}
    classes = tuple(dict.fromkeys(glued.get(v) or frozenset((v,)) for v in ordered_carriers))

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
    return _class_counts(ball, _lines(family, ball))


def _class_counts(ball: TreeBall, lines) -> tuple[tuple[int, int], ...]:
    # one union-find over vertex ids; an axis joins its exits at each
    # distance past its base, so unions never leave a sphere
    parent = list(range(len(ball.vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for base_id, last, reach, row in lines:
        step, inverse = ball.branch * base_id + 2, last ^ 1
        for rays in row:
            x, y = rays.first
            head, tail = step + x - (x > inverse), step + y - (y > inverse)
            a, b = find(head), find(tail)
            if a != b:
                parent[a] = b
            if reach > 1:
                for p, e, _, g, _ in islice(rays.walk, 1, reach):
                    a, b = find(p * head + e), find(p * tail + g)
                    if a != b:
                        parent[a] = b
    offsets = ball.offsets
    return tuple(
        (radius, sum(1 for v in range(offsets[radius], offsets[radius + 1]) if parent[v] == v))
        for radius in range(1, ball.radius + 1)
    )
