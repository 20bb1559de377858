"""Balls in the Cayley tree of a free group.

Vertices are reduced words (tuples of letters); the ball of radius r
holds every reduced word of length at most r.  Edges join u to u.x when
the product stays reduced.  For rank n >= 2 the vertex count is
1 + 2n((2n-1)^r - 1)/(2n-2); a guard refuses balls past a set budget.
A ball stores no words: ``vertices`` decodes each from its id on demand.

Vertex ids.  The ball lists its vertices in (length, ``word_key``)
order, and that order is a mixed-radix numbering: the first letter is
one of 2n digits, each later letter one of the 2n-1 letters other than
the inverse of the one before, ranked in canonical order.  So a vertex's
id, its position in ``vertices``, is arithmetic: the root is 0, the
child of the root by the letter with index i (a is 0, a^-1 is 1, b is 2,
...) is 1 + i, and the child of any other vertex v by the letter with
digit d is (2n-1)·v + 2 + d.  The ids do not depend on the radius.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DEFAULT_VERTEX_CAP, InvalidInputError, ResourceCapError
from .words import Alphabet, format_letter, format_word, letter_index


def predicted_vertex_count(rank: int, radius: int) -> int:
    if radius < 0:
        raise InvalidInputError(f"radius must be >= 0, got {radius}")
    if rank == 1:
        return 2 * radius + 1
    d = 2 * rank
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)


def child_step(last: int, x: int) -> int:
    """The id step from a vertex to its child: child = branch * parent + step.

    ``x`` is the letter index of the child's last letter and ``last`` that
    of the parent's, or -1 at the root.  The index of a letter's inverse
    is its own with the last bit flipped, so x must not be ``last ^ 1``.
    """
    return 2 + x - (x > last ^ 1)


class TreeBall:
    """The radius-r ball around the identity vertex, ids in ``vertices`` order."""

    def __init__(self, alphabet: Alphabet, radius: int):
        self.alphabet = alphabet
        self.radius = radius
        self.vertices = _Vertices(self)
        self.branch = 2 * alphabet.rank - 1
        # offsets[k] is the id of the first vertex at distance k
        self.offsets = [0, 1]
        for k in range(1, radius + 1):
            self.offsets.append(self.branch * self.offsets[k] + 2)

    def index(self, vertex) -> int | None:
        """The id of a vertex, or None for anything that is not a ball vertex."""
        word = tuple(vertex)
        if len(word) > self.radius:
            return None
        v, last = 0, -1
        for x in word:
            if not isinstance(x, int) or not self.alphabet.contains(x):
                return None
            x = letter_index(x)
            if x == last ^ 1:
                return None
            v, last = self.branch * v + child_step(last, x), x
        return v

    def __contains__(self, vertex) -> bool:
        return self.index(vertex) is not None

    def vertex_count(self) -> int:
        return self.offsets[-1]

    def edge_count(self) -> int:
        return self.offsets[-1] - 1

    def parents(self) -> list[int]:
        """The parent id of every vertex but the root, in id order.

        The children of each vertex are consecutive ids, the root's 2n
        first and then 2n - 1 for each vertex inside the ball, in id order.
        """
        if not self.radius:
            return []
        inner = range(1, self.offsets[self.radius])
        return [0] * (self.branch + 1) + [p for p in inner for _ in range(self.branch)]

    def levels(self):
        """Each sphere's last letter indices in id order (-1 at the root), built on demand.

        The table of each letter's 2n - 1 children is built only when a
        sphere past the first is read.
        """
        m, level = 2 * self.alphabet.rank, [-1]
        yield level
        for k in range(1, self.radius + 1):
            if k == 2:
                children = [[x for x in range(m) if x != last ^ 1] for last in range(m)]
            level = [x for last in level for x in children[last]] if k > 1 else list(range(m))
            yield level

    def labels(self) -> list[str]:
        """``format_word`` of every vertex in id order."""
        return list(self.iter_labels())

    def iter_labels(self):
        """``format_word`` of every vertex in id order, each built from its
        parent's, keeping only the labels of the sphere before.

        A word with a letter past the 26 of the letter form is numeric
        throughout, so such a letter switches the label to the numeric
        form of the whole word, which for a child of the root is the letter.
        """
        letters = self.alphabet.letters()
        letter = [format_letter(x) for x in letters[:52]]
        yield format_word(())
        levels, before, v = self.levels(), [""], 1
        next(levels)
        for level in levels:
            step, sphere = len(level) // len(before), []  # children per parent
            for j, x in enumerate(level):
                head = before[j // step]
                if head[-1:].isdigit():
                    sphere.append(f"{head} {letters[x]}")
                elif x < 52:
                    sphere.append(head + letter[x])
                else:
                    sphere.append(format_word(self.vertices[v + j]) if head else str(letters[x]))
            yield from sphere
            before, v = sphere, v + len(sphere)

    def to_dot(self, name: str = "ball") -> str:
        labels = self.labels()
        lines = [f"graph {name} {{"]
        lines += [f'  "{label}";' for label in labels]
        lines += [f'  "{labels[p]}" -- "{labels[v]}";'
                  for v, p in enumerate(self.parents(), 1)]
        lines.append("}")
        return "\n".join(lines) + "\n"


def _bounded_vertex_count(rank: int, radius: int, bound: int) -> int | None:
    """``predicted_vertex_count``, or None once the count is known to pass ``bound``.

    Sums the spheres outward and stops at the first sum past the bound, so
    at rank >= 2 it takes at most about log(bound) steps at any radius.
    """
    if rank == 1 or radius < 0:
        count = predicted_vertex_count(rank, radius)
        return count if count <= bound else None
    count, sphere = 1, 2 * rank
    for _ in range(radius):
        count += sphere
        if count > bound:
            return None
        sphere *= 2 * rank - 1
    return count


def build_ball(alphabet: Alphabet, radius: int, cap: int = DEFAULT_VERTEX_CAP) -> TreeBall:
    """The ball, refusing if the predicted size, or the 2n letters that its
    per-letter tables take even at radius 0, exceed ``cap``.

    A size past ``max(cap, 10**18)`` is never computed in full: the
    refusal reports it as more than that bound, with ``predicted=None``.
    """
    bound = max(cap, 10**18)
    predicted = _bounded_vertex_count(alphabet.rank, radius, bound)
    if predicted is None or predicted > cap:
        size = f"more than {bound}" if predicted is None else predicted
        raise ResourceCapError(
            f"ball of rank {alphabet.rank}, radius {radius} has {size} vertices (cap {cap})",
            predicted=predicted,
            cap=cap,
        )
    if 2 * alphabet.rank > cap:
        raise ResourceCapError(f"ball of rank {alphabet.rank} has {2 * alphabet.rank} letters"
                               f" (cap {cap})", predicted=2 * alphabet.rank, cap=cap)
    return TreeBall(alphabet, radius)


class _Vertices(Sequence):
    """A ball's vertex words by id, read-only, each built only when it is read.

    ``vertices[i]`` decodes id i by the mixed-radix rule above, last letter
    first: past the first sphere, v is the child of (v - 2) // (2n - 1) by
    the digit (v - 2) % (2n - 1).
    """

    __slots__ = ("ball", "letters")

    def __init__(self, ball: TreeBall):
        self.ball, self.letters = ball, ball.alphabet.letters()

    def __len__(self) -> int:
        return self.ball.offsets[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        count = self.ball.offsets[-1]
        v = i + count if i < 0 else i
        if not 0 <= v < count:
            raise IndexError(f"vertex id {i} out of range")
        letters, branch, digits = self.letters, self.ball.branch, []
        while v:
            # a child of the root is 1 + its letter index, read as the digit v - 2
            v, d = divmod(v - 2, branch) if v > branch + 1 else (0, v - 2)
            digits.append(d)
        word, x = [], -1
        for d in reversed(digits):
            x = d + (d >= x ^ 1)  # child_step inverted
            word.append(letters[x])
        return tuple(word)
