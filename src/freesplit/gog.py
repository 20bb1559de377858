"""Graphs of groups with cyclic edge groups, and the one-endedness decision.

Vertex groups are free of finite rank, infinite cyclic, or opaque
one-ended placeholders.  Edge groups are infinite cyclic, attached to a
free vertex by a nontrivial cyclic word, to a cyclic vertex by a nonzero
exponent, and to an opaque vertex by an uninterpreted tag.

The fundamental group is one-ended exactly when no vertex group splits
over a finite subgroup relative to its incident edge groups; for free
vertex groups that is the indecomposability decision on the incident
attachment words, for cyclic and opaque vertices it holds automatically
once they carry an edge (a lone cyclic vertex is Z, which has two ends).
The double construction attaches two copies of a free group along one
edge per conjugacy class of a word family and is one-ended precisely
when the family is indecomposable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InvalidInputError, ParseError, UnsupportedExportError
from .graphs import Multigraph
from .whitehead import DECOMPOSABLE, IndecomposabilityVerdict, decide_indecomposable
from .words import (
    Alphabet,
    CyclicWord,
    conjugacy_class_rep,
    cyclic_reduce,
    format_word,
    parse_word,
)


@dataclass(frozen=True)
class FreeVertex:
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidInputError(f"free vertex rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class CyclicVertex:
    pass


@dataclass(frozen=True)
class OpaqueVertex:
    """A declared one-ended vertex group with no further structure."""

    label: str = ""


VertexGroup = FreeVertex | CyclicVertex | OpaqueVertex


@dataclass(frozen=True)
class EdgeSpec:
    """An edge with its two endpoint vertex ids and attachments.

    Equal endpoint ids make a loop (HNN edge); a loop's two attachments
    both count toward the incident family of its single endpoint.
    """

    id: str
    endpoints: tuple[str, str]
    attachments: tuple[object, object]


@dataclass
class GraphOfGroups:
    vertices: dict[str, VertexGroup]
    edges: list[EdgeSpec]

    def incident(self, vertex_id: str) -> list[tuple[EdgeSpec, int]]:
        """Incident (edge, endpoint slot) pairs; loops appear twice."""
        out = []
        for e in self.edges:
            for slot in (0, 1):
                if e.endpoints[slot] == vertex_id:
                    out.append((e, slot))
        return out

    def degree(self, vertex_id: str) -> int:
        return len(self.incident(vertex_id))


def _attachment_errors(g: GraphOfGroups, edge: EdgeSpec, slot: int) -> list[str]:
    vid = edge.endpoints[slot]
    group = g.vertices.get(vid)
    att = edge.attachments[slot]
    errors = []
    if isinstance(group, FreeVertex):
        if not isinstance(att, CyclicWord):
            errors.append(
                f"edge {edge.id}: trivial edge group at free vertex {vid}"
                " (attachment must be a nontrivial word)"
            )
        else:
            try:
                Alphabet(group.rank).validate_letters(att.letters)
            except InvalidInputError:
                errors.append(
                    f"edge {edge.id}: attachment {format_word(att.letters)} uses letters"
                    f" outside rank-{group.rank} vertex {vid}"
                )
    elif isinstance(group, CyclicVertex):
        if not isinstance(att, int) or att == 0:
            errors.append(
                f"edge {edge.id}: attachment at cyclic vertex {vid} must be a nonzero integer"
            )
    elif isinstance(group, OpaqueVertex):
        if att is not None and not isinstance(att, str):
            errors.append(f"edge {edge.id}: attachment at opaque vertex {vid} must be a tag")
    return errors


def validate(g: GraphOfGroups) -> list[str]:
    """All well-formedness violations, each tagged with the vertex/edge id."""
    errors = []
    if not g.vertices:
        errors.append("graph has no vertices")
        return errors
    for e in g.edges:
        for vid in e.endpoints:
            if vid not in g.vertices:
                errors.append(f"edge {e.id}: unknown vertex {vid}")
    ids = Counter(e.id for e in g.edges)
    for dup in sorted(i for i, n in ids.items() if n > 1):
        errors.append(f"duplicate edge id {dup}")
    links = Multigraph(sorted(g.vertices))
    for e in g.edges:
        if all(v in g.vertices for v in e.endpoints):
            links.add_edge(*e.endpoints)
            for slot in (0, 1):
                errors.extend(_attachment_errors(g, e, slot))
    reached = links.components()[0]
    if len(reached) != len(g.vertices):
        missing = ", ".join(sorted(set(g.vertices) - reached))
        errors.append(f"graph is not connected (unreached: {missing})")
    return errors


def trivial_vertices(g: GraphOfGroups) -> list[str]:
    """Degree-1 vertices whose group equals the incident edge group.

    A cyclic vertex with attachment exponent +-1, or a rank-1 free
    vertex whose attachment word is a single letter.
    """
    out = []
    for vid in sorted(g.vertices):
        incident = g.incident(vid)
        if len(incident) != 1:
            continue
        edge, slot = incident[0]
        group = g.vertices[vid]
        att = edge.attachments[slot]
        if isinstance(group, CyclicVertex) and att in (1, -1):
            out.append(vid)
        elif isinstance(group, FreeVertex) and group.rank == 1 and len(att) == 1:
            out.append(vid)
    return out


@dataclass(frozen=True)
class OneEndednessVerdict:
    decision: str  # "one-ended" | "not-one-ended"
    witness_vertex: str | None = None
    witness: IndecomposabilityVerdict | None = None
    reason: str | None = None

    @property
    def is_one_ended(self) -> bool:
        return self.decision == "one-ended"


ONE_ENDED = "one-ended"
NOT_ONE_ENDED = "not-one-ended"


def one_ended(g: GraphOfGroups) -> OneEndednessVerdict:
    """Decide one-endedness of the fundamental group.

    Precondition: the graph validates and has no trivial vertices.  Each
    free vertex is checked by deciding indecomposability of its incident
    attachment words (a loop contributes both of its words).  A free or
    cyclic vertex without incident edges is the whole graph, and its
    group (free, or Z) splits freely.  Otherwise cyclic and opaque
    vertices never split over a finite subgroup relative to their edge
    groups.  The lowest failing vertex id wins.
    """
    errors = validate(g)
    if errors:
        raise InvalidInputError("; ".join(errors))
    trivial = trivial_vertices(g)
    if trivial:
        raise InvalidInputError(f"graph has trivial vertices: {', '.join(trivial)}")
    for vid in sorted(g.vertices):
        group = g.vertices[vid]
        if isinstance(group, OpaqueVertex):
            continue
        if not g.edges:
            # A valid graph is connected, so vid is its only vertex.
            kind = "free" if isinstance(group, FreeVertex) else "cyclic"
            return OneEndednessVerdict(
                NOT_ONE_ENDED,
                witness_vertex=vid,
                reason=f"{kind} vertex {vid} has no incident edges and splits freely",
            )
        if isinstance(group, CyclicVertex):
            continue
        words = [e.attachments[slot] for e, slot in g.incident(vid)]
        verdict = decide_indecomposable(Alphabet(group.rank), words)
        if verdict.decision == DECOMPOSABLE:
            return OneEndednessVerdict(
                NOT_ONE_ENDED,
                witness_vertex=vid,
                witness=verdict,
                reason=f"incident family of {vid} is decomposable",
            )
    return OneEndednessVerdict(ONE_ENDED)


def double(alphabet: Alphabet, family) -> GraphOfGroups:
    """Two copies of the free group joined by one edge per conjugacy class.

    Family words are first canonicalised to class-with-inverse
    representatives and deduplicated, so conjugate or inverse duplicates
    yield a single edge.  Both attachments of each edge carry the same
    representative word.
    """
    family = tuple(family)
    if not family:
        raise InvalidInputError("family must be nonempty")
    reps = []
    for w in family:
        if not isinstance(w, CyclicWord):
            raise InvalidInputError(f"family members must be CyclicWord, got {w!r}")
        alphabet.validate_letters(w.letters)
        rep = conjugacy_class_rep(w)
        if rep not in reps:
            reps.append(rep)
    vertices = {"v1": FreeVertex(alphabet.rank), "v2": FreeVertex(alphabet.rank)}
    edges = [
        EdgeSpec(f"e{i}", ("v1", "v2"), (rep, rep)) for i, rep in enumerate(reps, start=1)
    ]
    return GraphOfGroups(vertices, edges)


# ---------------------------------------------------------------------------
# Presentation export

_VERTEX_LETTER_POOL = "abcdefghijklmnopqrsuvwxyz"  # t is reserved for stable letters


def presentation(g: GraphOfGroups) -> str:
    """Fundamental-group presentation along a spanning tree.

    Generators: fresh letters per free/cyclic vertex (in vertex id
    order) plus one stable letter per non-tree edge (in edge id order).
    Relations: ``u = v`` for tree edges and ``t u t^-1 = v`` for
    non-tree edges, emitted tree edges first, each side ordered by edge
    id.  Opaque vertices have no presentation and are rejected.
    """
    errors = validate(g)
    if errors:
        raise InvalidInputError("; ".join(errors))
    for vid in sorted(g.vertices):
        if isinstance(g.vertices[vid], OpaqueVertex):
            raise UnsupportedExportError(f"vertex {vid} is opaque; no presentation available")

    counts = {
        vid: (grp.rank if isinstance(grp, FreeVertex) else 1)
        for vid, grp in g.vertices.items()
    }
    total = sum(counts.values())
    use_letters = total <= len(_VERTEX_LETTER_POOL)
    names: dict[str, list[str]] = {}
    next_index = 0
    for vid in sorted(g.vertices):
        allocated = []
        for _ in range(counts[vid]):
            if use_letters:
                allocated.append(_VERTEX_LETTER_POOL[next_index])
            else:
                allocated.append(f"x{next_index + 1}")
            next_index += 1
        names[vid] = allocated

    def render(vid: str, attachment) -> str:
        gens = names[vid]
        if isinstance(attachment, int):
            letter = gens[0]
            symbol = letter if attachment > 0 else _inverse_name(letter, use_letters)
            return _join_symbols([symbol] * abs(attachment), use_letters)
        symbols = [
            gens[abs(x) - 1] if x > 0 else _inverse_name(gens[abs(x) - 1], use_letters)
            for x in attachment.letters
        ]
        return _join_symbols(symbols, use_letters)

    sorted_edges = sorted(g.edges, key=lambda e: e.id)
    tree_edges = []
    non_tree = []
    reached = {min(g.vertices)}
    remaining = list(sorted_edges)
    grew = True
    while grew:
        grew = False
        for e in list(remaining):
            u, v = e.endpoints
            if u == v:
                continue
            if (u in reached) != (v in reached):
                reached |= {u, v}
                tree_edges.append(e)
                remaining.remove(e)
                grew = True
    non_tree = [e for e in sorted_edges if e not in tree_edges]

    stable_names = {}
    for i, e in enumerate(non_tree, start=1):
        stable_names[e.id] = "t" if len(non_tree) == 1 else f"t{i}"

    relations = []
    for e in tree_edges:
        left = render(e.endpoints[0], e.attachments[0])
        right = render(e.endpoints[1], e.attachments[1])
        relations.append(f"{left} = {right}")
    for e in non_tree:
        t = stable_names[e.id]
        left = render(e.endpoints[0], e.attachments[0])
        right = render(e.endpoints[1], e.attachments[1])
        relations.append(f"{t} {left} {t}^-1 = {right}")

    generators = [name for vid in sorted(g.vertices) for name in names[vid]]
    generators += [stable_names[e.id] for e in non_tree]
    if relations:
        return f"< {', '.join(generators)} | {', '.join(relations)} >"
    return f"< {', '.join(generators)} | >"


def _inverse_name(symbol: str, use_letters: bool) -> str:
    if use_letters and len(symbol) == 1:
        return symbol.upper()
    return f"{symbol}^-1"


def _join_symbols(symbols, use_letters: bool) -> str:
    if use_letters:
        return "".join(symbols)
    return " ".join(symbols)


# ---------------------------------------------------------------------------
# File format


def parse_gog(text: str) -> GraphOfGroups:
    """Parse the graph-of-groups file format; errors carry line numbers."""
    vertices: dict[str, VertexGroup] = {}
    edges: list[EdgeSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) < 3:
                raise ParseError("vertex line needs: vertex <id> <kind> [...]", lineno)
            vid, vkind = tokens[1], tokens[2]
            if vid in vertices:
                raise ParseError(f"duplicate vertex id {vid}", lineno)
            if vkind == "free":
                if len(tokens) != 4 or not tokens[3].isdigit() or int(tokens[3]) < 1:
                    raise ParseError("free vertex needs a positive rank", lineno)
                vertices[vid] = FreeVertex(int(tokens[3]))
            elif vkind == "cyclic":
                if len(tokens) != 3:
                    raise ParseError("cyclic vertex takes no extra fields", lineno)
                vertices[vid] = CyclicVertex()
            elif vkind == "opaque":
                if len(tokens) > 4:
                    raise ParseError("opaque vertex takes at most a label", lineno)
                vertices[vid] = OpaqueVertex(tokens[3] if len(tokens) == 4 else "")
            else:
                raise ParseError(f"unknown vertex kind {vkind!r}", lineno)
        elif kind == "edge":
            if len(tokens) != 6:
                raise ParseError(
                    "edge line needs: edge <id> <v1> <v2> <attach1> <attach2>", lineno
                )
            eid, v1, v2, a1, a2 = tokens[1:]
            for vid in (v1, v2):
                if vid not in vertices:
                    raise ParseError(f"unknown vertex {vid} (declare vertices first)", lineno)
            attachments = (
                _parse_attachment(a1, vertices[v1], lineno),
                _parse_attachment(a2, vertices[v2], lineno),
            )
            edges.append(EdgeSpec(eid, (v1, v2), attachments))
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    if not vertices:
        raise ParseError("no vertices declared", None)
    return GraphOfGroups(vertices, edges)


def _parse_attachment(token: str, group: VertexGroup, lineno: int):
    if isinstance(group, OpaqueVertex):
        return None if token == "-" else token
    if isinstance(group, CyclicVertex):
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"cyclic attachment must be an integer, got {token!r}", lineno)
        if value == 0:
            raise ParseError("trivial edge group: cyclic attachment is 0", lineno)
        return value
    alphabet = Alphabet(group.rank)
    try:
        word = parse_word(token.replace(",", " "), alphabet)
    except InvalidInputError as exc:
        raise ParseError(f"bad attachment word {token!r}: {exc}", lineno)
    core, _ = cyclic_reduce(word)
    if core is None:
        raise ParseError(f"trivial edge group: attachment {token!r} reduces to identity", lineno)
    return core


def serialize_gog(g: GraphOfGroups) -> str:
    """Emit the file format; output re-parses to an equivalent graph."""
    lines = []
    for vid in sorted(g.vertices):
        grp = g.vertices[vid]
        if isinstance(grp, FreeVertex):
            lines.append(f"vertex {vid} free {grp.rank}")
        elif isinstance(grp, CyclicVertex):
            lines.append(f"vertex {vid} cyclic")
        else:
            label = f" {grp.label}" if grp.label else ""
            lines.append(f"vertex {vid} opaque{label}")
    for e in g.edges:
        a1 = _format_attachment(e.attachments[0])
        a2 = _format_attachment(e.attachments[1])
        lines.append(f"edge {e.id} {e.endpoints[0]} {e.endpoints[1]} {a1} {a2}")
    return "\n".join(lines) + "\n"


def _format_attachment(att) -> str:
    if att is None:
        return "-"
    if isinstance(att, int):
        return str(att)
    if isinstance(att, str):
        return att
    if all(1 <= abs(x) <= 26 for x in att.letters):
        return format_word(att.letters)
    return ",".join(str(x) for x in att.letters)
