"""Whitehead graphs, length minimization, and indecomposability decisions.

The Whitehead graph of a family of cyclic words has one vertex per
letter and, for every cyclic occurrence of the two-letter string ``x y``
in a family word, one edge joining ``x`` to ``y^-1``.  Its total edge
multiplicity therefore equals the total cyclic length of the family.

Minimization greedily applies the multiplier-type Whitehead automorphism
that most reduces total cyclic length, until none does; the best move for
each multiplier is a minimum cut in the Whitehead graph, one per
generator, since x and x^-1 change length alike.  On a minimal family
the graph is either disconnected (the family can be conjugated into a
proper free factor, and the component structure exhibits the
factorisation) or 2-vertex connected (the family is indecomposable).

By Whitehead's cut-vertex lemma (Stallings 1999; Heusener and Weidmann
2019) a decomposable family has a cut vertex or a disconnected Whitehead
graph in every basis.  So a family whose own graph is 2-vertex connected
is decided indecomposable, and at rank 2 and up a tuple with such a graph
is not a basis, without a descent; a decision runs the descent for such
a family only when its certificate is read.
"""

from __future__ import annotations

from .errors import (
    DEFAULT_VERTEX_CAP, InternalConsistencyError, InvalidInputError, ResourceCapError, _int_text,
)
from .graphs import Multigraph, _max_flow, _search
from .words import (
    Alphabet,
    CyclicWord,
    FreeGroupMap,
    MultiplierAutomorphism,
    _Record,
    _core,
    _family_letters,
    _parse_cyclic,
    canonical_rotation,
    letter_index,
    total_cyclic_length,
)

INDECOMPOSABLE = "indecomposable"
DECOMPOSABLE = "decomposable"


def build_whitehead_graph(alphabet: Alphabet, family) -> Multigraph:
    """Whitehead graph of a family (multiset) of cyclic words, on the 2n letters.

    Refuses with ResourceCapError, before any letter is listed, when the
    2n vertices exceed the ball's default vertex budget.
    """
    words = _checked_letters(alphabet, family)
    return Multigraph._from_rows(alphabet.letters(), _capacity_rows(alphabet.rank, words))


def _checked_letters(alphabet: Alphabet, family) -> list[tuple[int, ...]]:
    """The family's letter tuples; refuses a rank past the vertex budget, then a bad member."""
    if 2 * alphabet.rank > DEFAULT_VERTEX_CAP:
        raise ResourceCapError(f"Whitehead graph of rank {_int_text(alphabet.rank)} has"
                               f" {_int_text(2 * alphabet.rank)} vertices"
                               f" (cap {DEFAULT_VERTEX_CAP})",
                               predicted=2 * alphabet.rank, cap=DEFAULT_VERTEX_CAP)
    return _family_letters(alphabet, family)


def _capacity_rows(rank: int, words) -> list[dict[int, int]]:
    """The Whitehead graph of cyclically reduced letter tuples, in any
    rotation, as one capacity row per letter x at ``letter_index(x)``."""
    rows = [{} for _ in range(2 * rank)]
    for letters in words:
        i = letter_index(letters[-1])
        for y in letters:
            # the cyclic pair (x, y) joins x, at i, to y^-1, at j
            j = 2 * y - 1 if y > 0 else -2 * y - 2
            rows[i][j] = rows[i].get(j, 0) + 1
            rows[j][i] = rows[j].get(i, 0) + 1
            i = j ^ 1  # y, the next pair's x
    return rows


def _two_connected(rank: int, words) -> tuple[bool, list[dict[int, int]] | None]:
    """Whether the Whitehead graph of checked letter tuples is 2-vertex
    connected, and its capacity rows, for a descent to start from.  A rank
    above their total length leaves a generator unused, so its letters
    isolated: ``(False, None)`` before any row is built."""
    if rank > sum(map(len, words)):
        return False, None
    rows = _capacity_rows(rank, words)
    components, cuts = _search(rows)
    return len(components) == 1 and not cuts, rows


def whitehead_moves(alphabet: Alphabet):
    """All multiplier-type Whitehead automorphisms, in canonical order.

    Order: multiplier letter ascending (a, a^-1, b, b^-1, ...), then the
    side set as an ascending bitmask over the remaining letters.  There
    are 2n * 2^(2n-2) of them, identity-acting ones included.
    """
    letters = alphabet.letters()
    for x in letters:
        others = [y for y in letters if y != x and y != -x]
        for mask in range(1 << len(others)):
            side = frozenset({x} | {others[i] for i in range(len(others)) if mask >> i & 1})
            yield MultiplierAutomorphism(alphabet.rank, x, side)


class TraceStep(_Record):
    """One descent step: the move and the total length before and after it."""

    __slots__ = ("automorphism", "length_before", "length_after")


class MinimizationTrace(_Record):
    """Record of a greedy descent: the steps taken, in order.

    The composite automorphism is only a certificate, and its images can
    grow far longer than the family, so it is composed on first read and
    kept in a slot that equality and hashing ignore.
    """

    __slots__ = ("rank", "steps", "_composite")

    def __init__(self, rank: int, steps: tuple[TraceStep, ...]):
        super().__init__(rank, steps, None)

    def _key(self) -> tuple:
        return self.rank, self.steps

    @property
    def composite(self) -> FreeGroupMap:
        """The composition of the steps, the first step applied first."""
        if self._composite is None:
            composite = FreeGroupMap.identity(self.rank)
            for step in self.steps:
                composite = composite.then(step.automorphism.to_map())
            object.__setattr__(self, "_composite", composite)
        return self._composite


def minimize(alphabet: Alphabet, family) -> tuple[tuple[CyclicWord, ...], MinimizationTrace]:
    """Greedy Whitehead descent on total cyclic length.

    A multiplier move (x, A) changes total length by cap(A) - deg(x) in
    the Whitehead graph, where cap(A) counts the edges with exactly one
    end in A.  So the best move with multiplier x is a minimum cut
    between x and x^-1.  An occurrence of a letter z puts one edge end at
    z and one at z^-1, so deg(x) = deg(x^-1), and that cut has one value
    both ways: x^-1 changes length exactly as x does.  So each step
    solves a max flow per generator x on the current Whitehead graph,
    stopped at deg(x) plus the best change so far, past which x cannot
    win.  The step applies the best strict reducer: the first multiplier
    in canonical order on ties, never an inverse letter, with the
    inclusion-minimal minimum cut as side set, which is also the first
    such side in ``whitehead_moves`` order.  Only multiplier moves are
    searched: permutation-type automorphisms preserve length and cannot
    help the descent.  The trace length is at most the initial total
    length.
    """
    minimized, trace, _ = _descend(alphabet, _checked_letters(alphabet, family))
    return minimized, trace


def _descend(alphabet: Alphabet, current: list[tuple[int, ...]], rows=None):
    """``minimize`` on checked letter tuples, plus the Whitehead graph of the result.

    The last, non-improving step builds that graph anyway, so a decision
    takes it from here instead of building it again; a decision's
    2-connectivity test hands over, as ``rows``, the capacity rows of the
    first step.  The graph and the length do not depend on rotation, so
    steps carry unrotated cores and only the result is rotated.  Moves keep
    letters in the alphabet, so the caller's check of the family is the
    only one.
    """
    letters = alphabet.letters()
    steps = []
    length = total_cyclic_length(current)
    if rows is None:
        rows = _capacity_rows(alphabet.rank, current)
    while True:
        best = None  # (source, side) of the best strict reducer so far
        best_change = 0
        for source in range(0, len(rows), 2):
            degree = sum(rows[source].values())
            if degree + best_change > 0:
                cut, side = _max_flow(rows, source, source + 1, degree + best_change)
                if side is not None:  # cut - degree < best_change: a strict improvement
                    best, best_change = (source, side), cut - degree
        if best is None:
            family = tuple(CyclicWord._from_canonical(canonical_rotation(w) if steps else w)
                           for w in current)
            graph = Multigraph._from_rows(letters, rows)
            return family, MinimizationTrace(alphabet.rank, tuple(steps)), graph
        source, side = best
        move = MultiplierAutomorphism(alphabet.rank, letters[source],
                                      frozenset(letters[i] for i in side))
        mapping = move.to_map()
        images = [mapping.apply(w) for w in current]
        if () in images:
            trivial = CyclicWord(current[images.index(())])
            raise InvalidInputError(f"map sends {trivial!r} to the trivial word")
        current = [_core(w) for w in images]
        new_length = total_cyclic_length(current)
        if new_length != length + best_change:
            raise InternalConsistencyError(
                f"move (multiplier {move.multiplier}, side {sorted(move.side)}) changed length"
                f" {length} -> {new_length}, but its cut predicts {length + best_change}"
            )
        steps.append(TraceStep(move, length, new_length))
        length = new_length
        rows = _capacity_rows(alphabet.rank, current)


class IndecomposabilityVerdict(_Record):
    """Decision plus certificate.

    For an indecomposable family the certificate is the minimized family
    together with its connected, cut-vertex-free Whitehead graph.  For a
    decomposable one it is the minimizing automorphism plus a bipartition
    (P, Q) of the generator indices such that every minimized word uses
    generators from only one side.  A verdict that the cut-vertex lemma
    decided runs the descent for its certificate when ``minimized``,
    ``graph``, ``trace`` or ``automorphism`` is first read, and keeps it;
    equality and hashing compare all but ``graph``, which ``minimized`` fixes.
    """

    __slots__ = ("decision", "_minimized", "_graph", "_trace", "bipartition", "_pending")

    def __init__(self, decision: str, minimized, graph, trace, bipartition):
        super().__init__(decision, minimized, graph, trace, bipartition, None)

    @classmethod
    def _by_lemma(cls, alphabet: Alphabet, words) -> "IndecomposabilityVerdict":
        """An INDECOMPOSABLE verdict for checked letter tuples whose Whitehead
        graph is 2-vertex connected; its certificate is built on first read."""
        verdict = cls(INDECOMPOSABLE, None, None, None, None)
        object.__setattr__(verdict, "_pending", (alphabet, words))
        return verdict

    def _certificate(self) -> tuple:
        """(minimized, graph, trace), from the descent on the first read of a lemma verdict."""
        if self._pending is not None:
            minimized, trace, graph = _descend(*self._pending)
            two_connected, cuts = graph.is_two_vertex_connected()
            if not two_connected:
                raise InternalConsistencyError(
                    f"2-connected family minimizes to a graph that is not (cut vertices {cuts})"
                )
            for name, value in (("_minimized", minimized), ("_graph", graph),
                                ("_trace", trace), ("_pending", None)):
                object.__setattr__(self, name, value)
        return self._minimized, self._graph, self._trace

    minimized = property(lambda self: self._certificate()[0], doc="The minimized family.")
    graph = property(lambda self: self._certificate()[1], doc="The minimal Whitehead graph.")
    trace = property(lambda self: self._certificate()[2], doc="The descent's trace.")

    def _key(self) -> tuple:
        return self.decision, self.minimized, self.trace, self.bipartition

    @property
    def automorphism(self) -> FreeGroupMap:
        """The minimizing automorphism, composed on first read."""
        return self.trace.composite

    @property
    def is_indecomposable(self) -> bool:
        return self.decision == INDECOMPOSABLE


def _generator_groups(components) -> tuple[frozenset[int], ...]:
    """The generator indices of each letter component, in component order.

    On a minimal Whitehead graph a used generator has both its letters in
    one component (otherwise cutting that component off would strictly
    reduce length), so groups overlap only where the two singleton
    letters of an unused generator follow each other; they make one
    group.  Any other overlap raises InternalConsistencyError.
    """
    groups = []
    for comp in components:
        group = frozenset(abs(x) for x in comp)
        if not groups or group != groups[-1]:
            groups.append(group)
    if sum(map(len, groups)) != len(frozenset().union(*groups)):
        raise InternalConsistencyError(f"generator groups overlap in components {components}")
    return tuple(groups)


def decide_indecomposable(alphabet: Alphabet, family) -> IndecomposabilityVerdict:
    """Decide whether a family of cyclic subgroups is indecomposable.

    By Whitehead's cut-vertex lemma (Stallings 1999; Heusener and
    Weidmann 2019) a family whose own Whitehead graph is 2-vertex
    connected is indecomposable: that verdict comes at once, and its
    certificate is built only when read.  Otherwise the family is
    minimized.  A disconnected minimal graph yields a Decomposable
    verdict with a generator bipartition read off the components; a
    connected one must have no cut vertex (minimality guarantees this; a
    surviving cut vertex raises InternalConsistencyError rather than
    guessing).
    """
    family = tuple(family)
    if not family:
        raise InvalidInputError("family must be nonempty")
    words = _checked_letters(alphabet, family)
    two_connected, rows = _two_connected(alphabet.rank, words)
    if two_connected:
        return IndecomposabilityVerdict._by_lemma(alphabet, words)
    minimized, trace, graph = _descend(alphabet, words, rows)
    # One search answers both tests: on its 2n >= 2 letters, a connected
    # graph without a cut vertex is 2-vertex connected.
    components, cuts = graph._search()
    if len(components) == 1 and not cuts:
        return IndecomposabilityVerdict(INDECOMPOSABLE, minimized, graph, trace, None)
    if len(components) == 1:
        raise InternalConsistencyError(
            f"minimal Whitehead graph is connected but has cut vertices {cuts}"
        )
    groups = _generator_groups(components)
    used = set().union(*(w.generator_support() for w in minimized))
    first = next((g for g in groups if g & used), groups[0])
    rest = frozenset(range(1, alphabet.rank + 1)) - first
    if not rest:
        raise InternalConsistencyError("disconnected graph produced a trivial bipartition")
    return IndecomposabilityVerdict(DECOMPOSABLE, minimized, graph, trace, (first, rest))


def recognize_basis(alphabet: Alphabet, words) -> tuple[bool, FreeGroupMap | None]:
    """Recognise whether a tuple of conjugacy classes comes from a basis.

    True iff the tuple has length equal to the rank and Whitehead
    minimization brings it to single-letter words on pairwise distinct
    generators; the witness is the minimizing automorphism.  At rank 2
    and up a basis is decomposable, so a tuple whose Whitehead graph is
    2-vertex connected is refused by the cut-vertex lemma, with no descent.
    """
    letters = _checked_letters(alphabet, words)
    if len(letters) != alphabet.rank:
        return False, None
    two_connected, rows = _two_connected(alphabet.rank, letters)
    if two_connected and alphabet.rank > 1:
        return False, None
    minimized, trace, _ = _descend(alphabet, letters, rows)
    # of the rank words, those of one letter use rank distinct generators iff all do
    if len({abs(w.letters[0]) for w in minimized if len(w) == 1}) != alphabet.rank:
        return False, None
    return True, trace.composite


def family_from_texts(alphabet: Alphabet, texts) -> tuple[CyclicWord, ...]:
    """Parse, freely reduce, and cyclically reduce a family given as text."""
    out = []
    for text in texts:
        core = _parse_cyclic(text, alphabet)[0]
        if core is None:
            raise InvalidInputError(f"word {text!r} is trivial")
        out.append(core)
    return tuple(out)
