"""Balls in the Cayley tree of a free group.

Vertices are reduced words (tuples of letters); the ball of radius r
holds every reduced word of length at most r.  Edges join u to u.x when
the product stays reduced.  For rank n >= 2 the vertex count is
1 + 2n((2n-1)^r - 1)/(2n-2), and a guard refuses to materialise balls
beyond a configurable budget.

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

from .errors import InvalidInputError, ResourceCapError
from .words import Alphabet, Word, format_letter, format_word, letter_index

DEFAULT_VERTEX_CAP = 2_000_000


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

    def __init__(self, alphabet: Alphabet, radius: int, vertices):
        self.alphabet = alphabet
        self.radius = radius
        self.vertices: tuple[Word, ...] = tuple(vertices)
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
        return len(self.vertices)

    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def edges(self):
        """Edges as (parent, child) pairs, child one letter longer."""
        for v in self.vertices:
            if v:
                yield v[:-1], v

    def parents(self) -> list[int]:
        """The parent id of every vertex but the root, in id order.

        The children of each vertex are consecutive ids, the root's 2n
        first and then 2n - 1 for each vertex inside the ball, in id order.
        """
        if not self.radius:
            return []
        inner = range(1, self.offsets[self.radius])
        return [0] * (self.branch + 1) + [p for p in inner for _ in range(self.branch)]

    def labels(self) -> list[str]:
        """``format_word`` of every vertex in id order, each built from its parent's.

        A word with a letter past the 26 of the letter form is numeric
        throughout, so such a letter switches the label to the numeric
        form of the whole word.
        """
        letter = {x: format_letter(x) for x in self.alphabet.letters() if abs(x) <= 26}
        out = [""]
        for word, parent in zip(self.vertices[1:], self.parents()):
            head, x = out[parent], word[-1]
            if head[-1:].isdigit():
                out.append(f"{head} {x}")
            elif x in letter:
                out.append(head + letter[x])
            else:
                out.append(format_word(word))
        out[0] = format_word(())
        return out

    def interior_edges(self):
        """Edges with both endpoints at distance <= radius - 1."""
        for u, v in self.edges():
            if len(v) <= self.radius - 1:
                yield u, v

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
    """Materialise the ball, refusing if the predicted size exceeds ``cap``.

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
    letters = alphabet.letters()
    vertices: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for x in letters:
                if not v or x != -v[-1]:
                    nxt.append(v + (x,))
        vertices.extend(nxt)
        frontier = nxt
    return TreeBall(alphabet, radius, vertices)
