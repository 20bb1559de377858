"""Shared test utilities: random corpora and independent oracles.

The oracles deliberately avoid the production code paths: articulation
points and 2-vertex connectivity by vertex deletion (on a ``Multigraph``'s
edges, or on adjacency bitmasks, which ``whitehead_two_connected`` builds
from a recount of the family's letter pairs), axis membership by the
conjugation-length criterion |v^-1 h v| = |h|_cyclic, axis identity by the
reduced conjugate element itself (valid for indivisible words, where
conjugates correspond to axes one to one), and argv by the argparse parser
the CLI used to build.  ``edges`` is not an oracle: it is a view over the
production ball that only the tests read.
"""

from __future__ import annotations

import argparse
import functools
import random
from itertools import chain, islice

from hypothesis import strategies as st

from freesplit import cli, tree
from freesplit.errors import ParseError
from freesplit.graphs import Multigraph
from freesplit.whitehead import build_whitehead_graph
from freesplit.words import (
    Alphabet,
    CyclicWord,
    FreeGroupMap,
    MultiplierAutomorphism,
    conjugacy_class_rep,
    cyclic_reduce,
    free_reduce,
    invert_word,
)


# ---------------------------------------------------------------------------
# Random corpora


def random_reduced_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    word: list[int] = []
    for _ in range(length):
        choices = [x for x in letters if not word or x != -word[-1]]
        word.append(rng.choice(choices))
    return tuple(word)


def random_cyclic_word(rng: random.Random, rank: int, length: int) -> CyclicWord:
    """A uniform-ish cyclically reduced word of exactly the given length."""
    assert length >= 1
    while True:
        word = random_reduced_word(rng, rank, length)
        if word[0] != -word[-1] or length == 1:
            return CyclicWord(word)


def random_family(
    rng: random.Random, rank: int, max_words: int, max_total_length: int
) -> tuple[CyclicWord, ...]:
    n_words = rng.randint(1, max_words)
    family = []
    budget = max_total_length
    for i in range(n_words):
        remaining = n_words - i
        max_len = max(1, budget - (remaining - 1))
        length = rng.randint(1, max_len)
        budget -= length
        family.append(random_cyclic_word(rng, rank, length))
    return tuple(family)


def random_move(rng: random.Random, rank: int) -> MultiplierAutomorphism:
    """A random multiplier-type Whitehead automorphism."""
    letters = Alphabet(rank).letters()
    x = rng.choice(letters)
    side = {x} | {y for y in letters if y not in (x, -x) and rng.random() < 0.5}
    return MultiplierAutomorphism(rank, x, frozenset(side))


def reference_apply(mapping: FreeGroupMap, word) -> tuple[int, ...]:
    """``mapping.apply(word)`` as one image per letter, in word order, freely
    reduced once: the form ``apply`` had before its image table."""
    return free_reduce(chain.from_iterable(mapping.letter_image(x) for x in word))


def is_proper_power(word: CyclicWord) -> bool:
    """True iff the word equals some nontrivial rotation of itself."""
    w = word.letters
    return any(w == w[i:] + w[:i] for i in range(1, len(w)))


def random_clean_family(
    rng: random.Random, rank: int, max_words: int, max_total_length: int
) -> tuple[CyclicWord, ...]:
    """A family of indivisible, pairwise non-conjugate-up-to-inverse words.

    Arc systems are sets of lines, so a proper power or a repeated
    conjugacy class contributes its line only once while the Whitehead
    graph counts its letters every time; the star/Whitehead multigraph
    comparison is only meaningful on families like these.
    """
    while True:
        family = random_family(rng, rank, max_words, max_total_length)
        if any(map(is_proper_power, family)):
            continue
        reps = {conjugacy_class_rep(w) for w in family}
        if len(reps) == len(family):
            return family


# ---------------------------------------------------------------------------
# Graph oracles


def whitehead_two_connected(alphabet: Alphabet, family) -> bool:
    """Whether the Whitehead graph of a family is 2-vertex connected, by
    vertex deletion on the adjacency bitmasks of ``whitehead_pair_recount``.

    By Whitehead's cut-vertex lemma (Stallings 1999; Heusener and
    Weidmann 2019) a decomposable family's graph has a cut vertex or is
    disconnected in every basis, so True proves it indecomposable.  An
    unused generator leaves isolated letters: False before any row.
    """
    pairs = whitehead_pair_recount(family, alphabet.rank)
    if len({abs(x) for pair in pairs for x in pair}) < alphabet.rank:
        return False
    position = {x: i for i, x in enumerate(alphabet.letters())}
    rows = [0] * len(position)
    for pair in pairs:
        i, j = (position[x] for x in pair)  # reduced words have no pair {x, x}
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return bitmask_two_connected(rows)


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


def brute_articulation_points(graph: Multigraph) -> set:
    """Articulation points by deleting each vertex and recounting components."""
    cuts = set()
    for v in graph.vertices:
        comp = _component_of(graph, v, excluded=None)
        if comp == {v}:
            continue
        rest = comp - {v}
        start = next(iter(rest))
        reached = _component_of(graph, start, excluded=v)
        if reached != rest:
            cuts.add(v)
    return cuts


def neighbors(graph: Multigraph, v) -> set:
    """The vertices joined to v by an edge, v itself for a loop."""
    return {b if a == v else a for a, b, _ in graph.edges() if v in (a, b)}


def _component_of(graph: Multigraph, start, excluded) -> set:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in neighbors(graph, u):
            if w != excluded and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def brute_is_two_vertex_connected(graph: Multigraph) -> bool:
    if len(graph.vertices) < 2:
        return False
    start = graph.vertices[0]
    if _component_of(graph, start, excluded=None) != set(graph.vertices):
        return False
    return not brute_articulation_points(graph)


def collapse(graph: Multigraph, subset, label) -> Multigraph:
    """Collapse a vertex subset to one new vertex, dropping resulting loops."""
    subset = set(subset)
    vertices = [v for v in graph.vertices if v not in subset] + [label]
    out = Multigraph(vertices, allow_loops=True)
    for u, v, m in graph.edges():
        nu = label if u in subset else u
        nv = label if v in subset else v
        if nu == nv:
            continue
        out.add_edge(nu, nv, m)
    return out


def random_multigraph(rng: random.Random, max_vertices: int = 12) -> Multigraph:
    n = rng.randint(2, max_vertices)
    vertices = list(range(n))
    graph = Multigraph(vertices, allow_loops=True)
    # spanning tree first so most samples are connected
    for v in range(1, n):
        graph.add_edge(rng.randrange(v), v)
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v, rng.randint(1, 2))
    return graph


def grow_connected_subset(rng: random.Random, graph: Multigraph, size: int, forbidden=()):
    """A random connected vertex subset avoiding ``forbidden``, or None."""
    candidates = [v for v in graph.vertices if v not in forbidden]
    if not candidates:
        return None
    start = rng.choice(candidates)
    subset = {start}
    while len(subset) < size:
        frontier = [
            w
            for v in subset
            for w in neighbors(graph, v)
            if w not in subset and w not in forbidden
        ]
        if not frontier:
            break
        subset.add(rng.choice(frontier))
    return subset


# ---------------------------------------------------------------------------
# Tree-side oracles (independent of the arcs module)


def edges(ball):
    """The ball's edges as (parent, child) pairs, child one letter longer."""
    for v in islice(ball.vertices, 1, None):
        yield v[:-1], v


def interior_edges(ball) -> list:
    """The ball's edges with both endpoints at distance <= radius - 1."""
    return list(islice(edges(ball), max(ball.offsets[ball.radius] - 1, 0)))


def on_axis(vertex, element) -> bool:
    """Whether a vertex lies on the axis of a hyperbolic element.

    Uses the classical criterion: v is on the axis of h iff conjugating
    h by v does not increase reduced length beyond the cyclic length.
    """
    core, _ = cyclic_reduce(element)
    cyc_len = 0 if core is None else len(core)
    conj = free_reduce(invert_word(vertex) + tuple(element) + tuple(vertex))
    return len(conj) == cyc_len


def oracle_lines(family, rank: int, base_radius: int) -> dict[tuple, tuple[int, ...]]:
    """Axes with base within ``base_radius``, keyed independently.

    Every such line passes through its base b and reads some rotation of
    a family word there, so it is the axis of the reduced conjugate
    h = b w' b^-1.  For indivisible, pairwise non-conjugate-up-to-inverse
    families the key min(h, h^-1) identifies the line.  Returns a map
    from key to one representative element.
    """
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    lines: dict[tuple, tuple[int, ...]] = {}
    vertices = _ball_vertices(letters, base_radius)
    for word in family:
        rotations = {
            word.letters[k:] + word.letters[:k] for k in range(len(word.letters))
        }
        for b in vertices:
            for rot in rotations:
                h = free_reduce(b + rot + invert_word(b))
                key = min(h, invert_word(h))
                lines.setdefault(key, h)
    return lines


def _ball_vertices(letters, radius: int):
    out = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for x in letters:
                if not v or x != -v[-1]:
                    nxt.append(v + (x,))
        out.extend(nxt)
        frontier = nxt
    return out


def oracle_axis_count(family, rank: int, radius: int) -> int:
    """Number of distinct axes meeting the ball, by the element oracle."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    ball = _ball_vertices(letters, radius)
    lines = oracle_lines(family, rank, radius)
    return sum(1 for h in lines.values() if any(on_axis(v, h) for v in ball))


def oracle_edge_count(family, rank: int, edge) -> int:
    """Number of distinct axes containing both endpoints of a tree edge."""
    u, v = (tuple(p) for p in edge)
    base_radius = max(len(u), len(v))
    lines = oracle_lines(family, rank, base_radius)
    return sum(1 for h in lines.values() if on_axis(u, h) and on_axis(v, h))


def oracle_class_count(family, rank: int, radius: int) -> int:
    """Sphere-class count at one radius, by the element oracle."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    sphere = [v for v in _ball_vertices(letters, radius) if len(v) == radius]
    index = {v: i for i, v in enumerate(sphere)}
    parent = list(range(len(sphere)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for h in oracle_lines(family, rank, radius - 1).values():
        exits = [v for v in sphere if on_axis(v, h)]
        if len(exits) == 2:
            a, b = find(index[exits[0]]), find(index[exits[1]])
            if a != b:
                parent[a] = b
    return sum(1 for i in range(len(sphere)) if find(i) == i)


# ---------------------------------------------------------------------------
# Word-side oracles


def whitehead_pair_recount(family, rank: int) -> dict[frozenset, int]:
    """Edge multiplicities recounted directly from letter pair scans."""
    counts: dict[frozenset, int] = {}
    for word in family:
        w = word.letters
        for i in range(len(w)):
            x, y = w[i], w[(i + 1) % len(w)]
            key = frozenset((x, -y))
            counts[key] = counts.get(key, 0) + 1
    return counts


def edmonds_karp_cut(graph: Multigraph, s, t) -> tuple[int, frozenset]:
    """Minimum s-t cut by plain Edmonds-Karp on the graph's edges: shortest
    augmenting paths from a zero flow, with no pre-push and no limit.

    Returns the value and the vertices reachable from s in the final
    residual graph, the inclusion-minimal source side.
    """
    residual = {v: {} for v in graph.vertices}
    for u, v, m in graph.edges():
        if u != v:
            residual[u][v] = residual[v][u] = m
    value = 0
    while True:
        parent = {s: None}
        queue = [s]
        for u in queue:
            for w, capacity in residual[u].items():
                if capacity and w not in parent:
                    parent[w] = u
                    queue.append(w)
            if t in parent:
                break
        if t not in parent:
            return value, frozenset(queue)
        path = []
        w = t
        while w != s:
            path.append((parent[w], w))
            w = parent[w]
        push = min(residual[u][w] for u, w in path)
        for u, w in path:
            residual[u][w] -= push
            residual[w][u] += push
        value += push


def full_cut_minimize(alphabet: Alphabet, family):
    """The greedy descent with a full ``edmonds_karp_cut`` from x to x^-1
    for every generator x at every step, and no bound on any flow.

    The best strict reducer wins, the first generator on ties, with the
    inclusion-minimal side.  Returns the minimized family and the steps
    as (multiplier, side, length before, length after).
    """
    current = tuple(family)
    length = sum(map(len, current))
    steps = []
    while True:
        graph = build_whitehead_graph(alphabet, current)
        degrees = graph.degrees()
        best, best_change = None, 0
        for x in range(1, alphabet.rank + 1):
            cut, side = edmonds_karp_cut(graph, x, -x)
            if cut - degrees[x] < best_change:
                best, best_change = MultiplierAutomorphism(alphabet.rank, x, side), cut - degrees[x]
        if best is None:
            return current, tuple(steps)
        mapping = best.to_map()
        current = tuple(mapping.apply_cyclic(w) for w in current)
        steps.append((best.multiplier, best.side, length, sum(map(len, current))))
        length = steps[-1][-1]


def bounded_product_search(candidates, target, max_factors: int):
    """Search products of the candidates and inverses for a target element.

    Returns a factor list like [(index, exponent), ...] or None.  The
    search is breadth-first over expressions with at most ``max_factors``
    factors, so a None answer only certifies absence within the bound.
    """
    target = free_reduce(target)
    gens = []
    for i, c in enumerate(candidates):
        word = tuple(c.letters) if isinstance(c, CyclicWord) else tuple(c)
        gens.append(((i, 1), word))
        gens.append(((i, -1), invert_word(word)))
    frontier = [((), ())]
    seen = {()}
    for _ in range(max_factors):
        nxt = []
        for expr, word in frontier:
            for tag, gen in gens:
                new_word = free_reduce(word + gen)
                if new_word == target:
                    return list(expr + (tag,))
                if new_word not in seen:
                    seen.add(new_word)
                    nxt.append((expr + (tag,), new_word))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# The CLI front end: the argparse parser that freesplit.cli built from its
# command table, with the argument options it had, and a corpus of argv.

_REFERENCE_ARGUMENTS = {
    "rank": (("--rank",), {"type": int, "required": True, "help": "free group rank"}),
    "strict": (("--strict",), {"action": "store_true",
                               "help": "reject words that are not already cyclically reduced"}),
    "words": (("words",), {"nargs": "+", "help": "cyclic words (letter or numeric form)"}),
    "radius": (("--radius",), {"type": int, "help": "ball radius (default 3)"}),
    "ball_radius": (("--radius",), {"type": int, "default": 2, "help": "ball radius (default 2)"}),
    "max_radius": (("--max-radius",), {"type": int, "help": "largest radius (default 3)"}),
    "cap": (("--cap",), {"type": int, "default": tree.DEFAULT_VERTEX_CAP,
                         "help": "ball vertex budget (default 2000000)"}),
    "output": (("-o", "--output"), {"help": "write the file here instead of stdout"}),
    "file": (("file",), {"help": "graph-of-groups file"}),
}


class _ReferenceParser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit 1 like any other bad input."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The parser freesplit.cli built from _COMMANDS before it read argv itself."""
    parser = _ReferenceParser(
        prog="freesplit",
        description="Whitehead-graph and arc-system decisions for free groups"
        " and graphs of groups",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_text, handler, formats, arguments in cli._COMMANDS:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=help_text)
        if handler is None:
            groups[name] = p.add_subparsers(dest="analysis", required=True)
            continue
        p.set_defaults(handler=handler, name=name.replace(" ", "-"))
        p.add_argument("--format", choices=formats, default="text")
        for key in arguments:
            flags, options = _REFERENCE_ARGUMENTS[key]
            p.add_argument(*flags, **options)
    return parser


_COMMAND_PATHS = [name.split() for name, *_ in cli._COMMANDS]
_LONG_FLAGS = ["--help", "--format", "--rank", "--strict", "--radius", "--max-radius", "--cap",
               "--output"]
# A long flag in full or cut to a prefix of at least "--x"; "--r" is
# ambiguous where both --rank and --radius are taken.
_FLAG = st.sampled_from(_LONG_FLAGS).flatmap(
    lambda flag: st.sampled_from([flag[:k] for k in range(3, len(flag) + 1)]))
# Flag values: ints, negative ints, what int() takes or refuses, formats.
# "--" is left out: "--rank=--" is read differently on purpose.
_VALUE = st.sampled_from([
    "2", "3", "1", "0", "-1", "-7", "+2", " 2", "2_0", "\u0663", "1.5", "x", "", "json", "text",
    "dot", "JSON", "abAB",
])
_WORD = st.sampled_from([
    "abAB", "a", "ab", "b", "-1", "-1 2", "1 2 -1 -2", "-1.5", "-.5", "-a", "-", "- a", "x.gog",
    "a=b", "--rank 2", "-h x",
])
_STRAY = st.sampled_from([
    "--", "-h", "--foo", "-x", "---", "-hh", "-hx", "-ho", "-ofile", "-o=f", "-h=", "--=x",
    "--strict=", "--help=x", "--strict=1", "tree", "graph", "ball", "Tree", "",
])
_UNIT = st.one_of(
    st.tuples(_FLAG, _VALUE).map(list),
    st.tuples(_FLAG, _VALUE).map(lambda fv: ["=".join(fv)]),
    st.tuples(st.just("-o"), _VALUE).map(list),
    _FLAG.map(lambda flag: [flag]),
    _WORD.map(lambda word: [word]),
    _STRAY.map(lambda stray: [stray]),
)
_GOOD_WORD = st.sampled_from(["abAB", "a", "ab", "-1", "-1 2", "1 2 -1 -2", "x.gog"])
_INT = st.sampled_from(["2", "3", "1", "-1", "0", "+2", " 2", "2_0", "\u0663"])


@st.composite
def _command_argv(draw) -> list[str]:
    """A command with most of its arguments, each well formed in one of the
    ways argparse took, in any order, and perhaps a stray unit or two."""
    name, _, handler, formats, arguments = draw(st.sampled_from(cli._COMMANDS))
    units = []
    for key in ("format",) * bool(formats) + arguments:
        flags = ("--format",) if key == "format" else _REFERENCE_ARGUMENTS[key][0]
        if draw(st.integers(0, 7)) == 0:
            continue
        if not flags[0].startswith("-"):  # a run of words, or the one file
            size = 3 if key == "words" else 1
            units.append(draw(st.lists(_GOOD_WORD, min_size=1, max_size=size)))
            continue
        flag = draw(st.sampled_from(flags))
        if flag.startswith("--") and draw(st.booleans()):
            flag = flag[:draw(st.integers(3, len(flag)))]
        if key == "strict":
            units.append([flag])
            continue
        value = draw(st.sampled_from(formats) if key == "format" else _INT)
        units.append(draw(st.sampled_from([[flag, value], [flag + "=" + value]])))
    units += draw(st.lists(_UNIT, max_size=2))
    return name.split() + [arg for unit in draw(st.permutations(units)) for arg in unit]


# argv: a command with its arguments, or perhaps a stray argument, a
# command path (whole, cut short or none), then flags, values and words in
# any order.
ARGV = st.one_of(_command_argv(), st.tuples(
    st.lists(_STRAY, max_size=1),
    st.sampled_from(_COMMAND_PATHS + [[], ["tree", "bal"]]),
    st.lists(_UNIT, max_size=7),
).map(lambda parts: parts[0] + parts[1] + [arg for unit in parts[2] for arg in unit]))
