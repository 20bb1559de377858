"""Whitehead graphs, length minimization, and indecomposability decisions.

The Whitehead graph of a family of cyclic words has one vertex per
letter and, for every cyclic occurrence of the two-letter string ``x y``
in a family word, one edge joining ``x`` to ``y^-1``.  Its total edge
multiplicity therefore equals the total cyclic length of the family.

Minimization greedily applies the multiplier-type Whitehead automorphism
that most reduces total cyclic length, until none does.  On a minimal
family the graph is either disconnected (the family can be conjugated
into a proper free factor, and the component structure exhibits the
factorisation) or 2-vertex connected (the family is indecomposable).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalConsistencyError, InvalidInputError
from .graphs import Multigraph
from .words import (
    Alphabet,
    CyclicWord,
    FreeGroupMap,
    MultiplierAutomorphism,
    total_cyclic_length,
)

INDECOMPOSABLE = "indecomposable"
DECOMPOSABLE = "decomposable"


def build_whitehead_graph(alphabet: Alphabet, family) -> Multigraph:
    """Whitehead graph of a family (multiset) of cyclic words, on the 2n letters."""
    graph = Multigraph(alphabet.letters(), allow_loops=False)
    for word in family:
        alphabet.validate_letters(word.letters)
        for x, y in word.cyclic_pairs():
            graph.add_edge(x, -y)
    return graph


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


@dataclass(frozen=True)
class TraceStep:
    automorphism: MultiplierAutomorphism
    length_before: int
    length_after: int


@dataclass(frozen=True)
class MinimizationTrace:
    """Record of a greedy descent: the steps taken and their composition."""

    steps: tuple[TraceStep, ...]
    composite: FreeGroupMap


def minimize(alphabet: Alphabet, family) -> tuple[tuple[CyclicWord, ...], MinimizationTrace]:
    """Greedy Whitehead descent on total cyclic length.

    At each step every multiplier automorphism is tried and the best
    strict reducer is applied (first in canonical order on ties).  Only
    multiplier moves are searched: permutation-type automorphisms
    preserve length and cannot help the descent.  The trace length is at
    most the initial total length.
    """
    current = tuple(family)
    composite = FreeGroupMap.identity(alphabet.rank)
    steps = []
    length = total_cyclic_length(current)
    while True:
        best = None
        best_length = length
        for move in whitehead_moves(alphabet):
            mapping = move.to_map()
            candidate = tuple(mapping.apply_cyclic(w) for w in current)
            cand_length = total_cyclic_length(candidate)
            if cand_length < best_length:
                best = (move, candidate)
                best_length = cand_length
        if best is None:
            break
        move, current = best
        steps.append(TraceStep(move, length, best_length))
        composite = composite.then(move.to_map())
        length = best_length
    return current, MinimizationTrace(tuple(steps), composite)


@dataclass(frozen=True)
class IndecomposabilityVerdict:
    """Decision plus certificate.

    For an indecomposable family the certificate is the minimized family
    together with its connected, cut-vertex-free Whitehead graph.  For a
    decomposable one it is the minimizing automorphism plus a bipartition
    (P, Q) of the generator indices such that every minimized word uses
    generators from only one side.
    """

    decision: str
    minimized: tuple[CyclicWord, ...]
    graph: Multigraph
    automorphism: FreeGroupMap
    trace: MinimizationTrace
    bipartition: tuple[frozenset[int], frozenset[int]] | None

    @property
    def is_indecomposable(self) -> bool:
        return self.decision == INDECOMPOSABLE


def _generator_groups(alphabet: Alphabet, graph: Multigraph) -> tuple[frozenset[int], ...]:
    """Partition generator indices by letter components, merging i with -i.

    On a minimal Whitehead graph a used generator always has both its
    letters in one component (otherwise cutting that component off would
    strictly reduce length), so the merge only ever glues the two
    singleton letters of an unused generator.  Groups come in order of
    their smallest generator.
    """
    generators = Multigraph(range(1, alphabet.rank + 1))
    for comp in graph.components():
        first, *rest = sorted({abs(x) for x in comp})
        for gen in rest:
            generators.add_edge(first, gen)
    return generators.components()


def decide_indecomposable(alphabet: Alphabet, family) -> IndecomposabilityVerdict:
    """Decide whether a family of cyclic subgroups is indecomposable.

    The family is minimized first.  A disconnected minimal graph yields
    a Decomposable verdict with a generator bipartition read off the
    components; a connected one must have no cut vertex (minimality
    guarantees this; a surviving cut vertex raises
    InternalConsistencyError rather than guessing).
    """
    family = tuple(family)
    if not family:
        raise InvalidInputError("family must be nonempty")
    for w in family:
        if not isinstance(w, CyclicWord):
            raise InvalidInputError(f"family members must be CyclicWord, got {w!r}")
    minimized, trace = minimize(alphabet, family)
    graph = build_whitehead_graph(alphabet, minimized)
    if len(graph.components()) == 1:
        cuts = graph.articulation_points()
        if cuts:
            raise InternalConsistencyError(
                f"minimal Whitehead graph is connected but has cut vertices {cuts}"
            )
        return IndecomposabilityVerdict(
            INDECOMPOSABLE, minimized, graph, trace.composite, trace, None
        )
    groups = _generator_groups(alphabet, graph)
    used = set().union(*(w.generator_support() for w in minimized))
    essential = [g for g in groups if g & used]
    if essential:
        first = essential[0]
    else:
        first = groups[0]
    rest = frozenset(range(1, alphabet.rank + 1)) - first
    if not rest:
        raise InternalConsistencyError("disconnected graph produced a trivial bipartition")
    return IndecomposabilityVerdict(
        DECOMPOSABLE, minimized, graph, trace.composite, trace, (first, rest)
    )


def recognize_basis(alphabet: Alphabet, words) -> tuple[bool, FreeGroupMap | None]:
    """Recognise whether a tuple of conjugacy classes comes from a basis.

    True iff the tuple has length equal to the rank and Whitehead
    minimization brings it to single-letter words on pairwise distinct
    generators; the witness is the minimizing automorphism.
    """
    words = tuple(words)
    if len(words) != alphabet.rank:
        return False, None
    minimized, trace = minimize(alphabet, words)
    if any(len(w) != 1 for w in minimized):
        return False, None
    indices = [abs(w.letters[0]) for w in minimized]
    if len(set(indices)) != alphabet.rank:
        return False, None
    return True, trace.composite


def family_from_texts(alphabet: Alphabet, texts) -> tuple[CyclicWord, ...]:
    """Parse, freely reduce, and cyclically reduce a family given as text."""
    from .words import cyclic_reduce, parse_word

    out = []
    for text in texts:
        core, _ = cyclic_reduce(parse_word(text, alphabet))
        if core is None:
            raise InvalidInputError(f"word {text!r} is trivial")
        out.append(core)
    return tuple(out)
