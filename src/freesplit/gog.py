"""Graphs of groups with cyclic edge groups, and the one-endedness decision.

Vertex groups are free of finite rank, infinite cyclic, or opaque
one-ended placeholders; a vertex group of any other class is read as
opaque by every stage.  Edge groups are infinite cyclic, attached to a
free vertex by a nontrivial cyclic word, to a cyclic vertex by a nonzero
exponent, and to an opaque vertex by an uninterpreted tag.

The fundamental group is one-ended exactly when no vertex group splits
over a finite subgroup relative to its incident edge groups; for free
vertex groups that is the indecomposability of the incident attachment
words, for cyclic and opaque vertices it holds automatically once they
carry an edge (a lone cyclic vertex is Z, which has two ends).  By
Whitehead's cut-vertex lemma (Stallings 1999; Heusener and Weidmann
2019) a family whose Whitehead graph is already 2-vertex connected is
indecomposable, so only the free vertices that fail that test get the
full decision.
The double construction attaches two copies of a free group along one
edge per conjugacy class of a word family and is one-ended precisely
when the family is indecomposable.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict

from .errors import (
    DEFAULT_VERTEX_CAP, InvalidInputError, ParseError, ResourceCapError, UnsupportedExportError,
    _int_text,
)
from .graphs import _search
from .whitehead import IndecomposabilityVerdict, _capacity_rows, decide_indecomposable
from .words import (
    Alphabet,
    CyclicWord,
    _Record,
    _family_letters,
    _parse_cyclic,
    _within_rank,
    conjugacy_class_rep,
    format_word,
)


class FreeVertex(_Record):
    __slots__ = ("rank",)

    def __init__(self, rank: int):
        if rank < 1:
            raise InvalidInputError(f"free vertex rank must be >= 1, got {_int_text(rank)}")
        super().__init__(rank)


class CyclicVertex(_Record):
    __slots__ = ()


class OpaqueVertex(_Record):
    """A declared one-ended vertex group with no further structure."""

    __slots__ = ("label",)

    def __init__(self, label: str = ""):
        super().__init__(label)


VertexGroup = FreeVertex | CyclicVertex | OpaqueVertex


class EdgeSpec(_Record):
    """An edge with its two endpoint vertex ids and attachments.

    Equal endpoint ids make a loop (HNN edge); a loop's two attachments
    both count toward the incident family of its single endpoint.
    """

    __slots__ = ("id", "endpoints", "attachments")


class GraphOfGroups:
    """Vertex groups by vertex id, and the edges; both may be edited in place."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: dict[str, VertexGroup], edges: list[EdgeSpec]):
        self.vertices = vertices
        self.edges = edges

    def __eq__(self, other):
        if type(other) is not GraphOfGroups:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges


def incidence(g: GraphOfGroups) -> defaultdict[str, list[tuple[EdgeSpec, int]]]:
    """Each vertex id's incident (edge, endpoint slot) pairs, in edge order.

    Loops appear twice.  Built in one pass over the edges; the graph is
    mutable, so callers build it where they use it rather than caching it.
    """
    out = defaultdict(list)
    for e in g.edges:
        for slot in (0, 1):
            out[e.endpoints[slot]].append((e, slot))
    return out


def _attachment_error(vid: str, group: VertexGroup, att) -> str | None:
    if isinstance(group, FreeVertex):
        if not isinstance(att, CyclicWord):
            return (
                f"trivial edge group at free vertex {vid}"
                " (attachment must be a nontrivial word)"
            )
        if not _within_rank(att.letters, group.rank):
            return (
                f"attachment {format_word(att.letters)} uses letters"
                f" outside rank-{group.rank} vertex {vid}"
            )
    elif isinstance(group, CyclicVertex):
        if not isinstance(att, int) or att == 0:
            return f"attachment at cyclic vertex {vid} must be a nonzero integer"
    elif att is not None and not isinstance(att, str):
        return f"attachment at opaque vertex {vid} must be a tag"
    return None


def validate(g: GraphOfGroups) -> list[str]:
    """All well-formedness violations, each tagged with the vertex/edge id."""
    return _checked(g)[0]


def _checked(g: GraphOfGroups) -> tuple[list[str], dict[str, list[tuple[EdgeSpec, int]]]]:
    """``validate``'s errors, and every vertex id's incident (edge, endpoint
    slot) pairs, as ``incidence`` gives them for a valid graph, from the
    same pass over the edges.  A nonzero int at a cyclic vertex is passed
    there; any other attachment gets the check that words its error."""
    vertices = g.vertices
    if not vertices:
        return ["graph has no vertices"], {}
    unknown, attachment = [], []
    incident = {vid: [] for vid in vertices}
    for e in g.edges:
        (u, v), (a, b) = e.endpoints, e.attachments
        at_u, at_v = incident.get(u), incident.get(v)
        if at_u is None or at_v is None:
            unknown += [
                f"edge {e.id}: unknown vertex {x}" for x in e.endpoints if x not in vertices
            ]
            continue
        at_u.append((e, 0))
        at_v.append((e, 1))
        if type(a) is not int or not a or type(vertices[u]) is not CyclicVertex:
            error = _attachment_error(u, vertices[u], a)
            if error:
                attachment.append(f"edge {e.id}: {error}")
        if type(b) is not int or not b or type(vertices[v]) is not CyclicVertex:
            error = _attachment_error(v, vertices[v], b)
            if error:
                attachment.append(f"edge {e.id}: {error}")
    repeated = []
    if len({e.id for e in g.edges}) != len(g.edges):
        repeated = sorted(i for i, n in Counter(e.id for e in g.edges).items() if n > 1)
    errors = unknown + [f"duplicate edge id {i}" for i in repeated] + attachment
    root = min(vertices)
    reached, stack = {root}, [root]
    while stack:
        for e, slot in incident[stack.pop()]:
            v = e.endpoints[1 - slot]
            if v not in reached:
                reached.add(v)
                stack.append(v)
    if len(reached) != len(vertices):
        missing = ", ".join(sorted(set(vertices) - reached))
        errors.append(f"graph is not connected (unreached: {missing})")
    return errors, incident


def trivial_vertices(g: GraphOfGroups) -> list[str]:
    """Degree-1 vertices whose group equals the incident edge group.

    A cyclic vertex with attachment exponent +-1, or a rank-1 free
    vertex whose attachment word is a single letter.
    """
    return _trivial_vertices(g, incidence(g), sorted(g.vertices))


def _trivial_vertices(g: GraphOfGroups, incident, order) -> list[str]:
    out = []
    for vid in order:
        if len(incident[vid]) != 1:
            continue
        edge, slot = incident[vid][0]
        group = g.vertices[vid]
        att = edge.attachments[slot]
        if isinstance(group, CyclicVertex) and att in (1, -1):
            out.append(vid)
        elif isinstance(group, FreeVertex) and group.rank == 1 and len(att) == 1:
            out.append(vid)
    return out


class OneEndednessVerdict(_Record):
    __slots__ = ("decision", "witness_vertex", "witness", "reason")

    def __init__(self, decision: str, witness_vertex: str | None = None,
                 witness: IndecomposabilityVerdict | None = None, reason: str | None = None):
        super().__init__(decision, witness_vertex, witness, reason)

    @property
    def is_one_ended(self) -> bool:
        return self.decision == "one-ended"


ONE_ENDED = "one-ended"
NOT_ONE_ENDED = "not-one-ended"


def one_ended(g: GraphOfGroups) -> OneEndednessVerdict:
    """Decide one-endedness of the fundamental group.

    Precondition: the graph validates and has no trivial vertices.  Each
    free vertex is checked for indecomposability of its incident
    attachment words (a loop contributes both of its words).  By
    Whitehead's cut-vertex lemma a 2-vertex connected Whitehead graph of
    those words already proves it.  ``decide_indecomposable`` applies the
    lemma itself, but vertices here often share one graph, so the test,
    one search of the graph's capacity rows, is made once per distinct
    graph and the decision runs only on the vertices whose graph fails it.
    A rank above the words' total length leaves a generator unused, so its
    two letters isolated, and fails the test before any row is built.  A
    free or cyclic vertex without incident edges is the whole graph, and
    its group (free, or Z) splits freely.  Otherwise cyclic and opaque
    vertices never split over a finite subgroup relative to their edge
    groups.  The lowest failing vertex id wins.
    """
    errors, incident = _checked(g)
    if errors:
        raise InvalidInputError("; ".join(errors))
    order = sorted(g.vertices)
    trivial = _trivial_vertices(g, incident, order)
    if trivial:
        raise InvalidInputError(f"graph has trivial vertices: {', '.join(trivial)}")
    vid = order[0]  # with no edges, the one vertex of a valid (connected) graph
    if not g.edges and isinstance(g.vertices[vid], (FreeVertex, CyclicVertex)):
        kind = "free" if isinstance(g.vertices[vid], FreeVertex) else "cyclic"
        return OneEndednessVerdict(
            NOT_ONE_ENDED,
            witness_vertex=vid,
            reason=f"{kind} vertex {vid} has no incident edges and splits freely",
        )
    two_connected: dict[tuple[frozenset, ...], bool] = {}  # by each row's neighbours, its keys
    for vid in order:
        group = g.vertices[vid]
        if not isinstance(group, FreeVertex):
            continue
        letters = [e.attachments[slot].letters for e, slot in incident[vid]]
        if group.rank <= sum(map(len, letters)):
            rows = _capacity_rows(group.rank, letters)
            key = tuple(map(frozenset, rows))
            if key not in two_connected:
                components, cuts = _search(rows)
                two_connected[key] = len(components) == 1 and not cuts
            if two_connected[key]:
                continue
        words = [e.attachments[slot] for e, slot in incident[vid]]
        verdict = decide_indecomposable(Alphabet(group.rank), words)
        if not verdict.is_indecomposable:
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
    _family_letters(alphabet, family)
    reps = dict.fromkeys(map(conjugacy_class_rep, family))
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
    The spanning tree grows from the least vertex id by sweeping the
    edges in id order again and again; an edge joins it when the sweep
    finds exactly one of its ends reached.  Relations: ``u = v`` for
    tree edges, in the order they join the tree, then ``t u t^-1 = v``
    for non-tree edges, in edge id order.  Opaque vertices have no
    presentation and are rejected.  More generators, or more relation
    letters, than ``DEFAULT_VERTEX_CAP`` raise ResourceCapError before any
    is named.
    """
    errors, incident = _checked(g)
    if errors:
        raise InvalidInputError("; ".join(errors))
    order = sorted(g.vertices)
    counts = []
    for vid in order:
        group = g.vertices[vid]
        if not isinstance(group, (FreeVertex, CyclicVertex)):
            raise UnsupportedExportError(f"vertex {vid} is opaque; no presentation available")
        counts.append(group.rank if isinstance(group, FreeVertex) else 1)
    total = sum(counts)
    # a valid graph is connected, so all but |V| - 1 edges get a stable letter
    n = total + len(g.edges) - len(order) + 1
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceCapError(f"presentation has {n} generators (cap {DEFAULT_VERTEX_CAP})",
                               predicted=n, cap=DEFAULT_VERTEX_CAP)
    n = sum(abs(att) if isinstance(att, int) else len(att.letters)
            for e in g.edges for att in e.attachments)
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceCapError(f"presentation has {n} relation letters"
                               f" (cap {DEFAULT_VERTEX_CAP})", predicted=n, cap=DEFAULT_VERTEX_CAP)
    if total <= len(_VERTEX_LETTER_POOL):
        separator, generators = "", list(_VERTEX_LETTER_POOL[:total])
        inverses = [name.upper() for name in generators]
    else:
        separator, generators = " ", [f"x{n}" for n in range(1, total + 1)]
        inverses = [f"{name}^-1" for name in generators]
    # The letter i of a vertex's group is generators[offset[vid] + i] and
    # its inverse inverses[offset[vid] + i], with 1 <= i <= the group's count.
    offset, n = {}, -1
    for vid, count in zip(order, counts):
        offset[vid] = n
        n += count

    def render(vid: str, attachment) -> str:
        base = offset[vid]
        if isinstance(attachment, int):
            name = generators[base + 1] if attachment > 0 else inverses[base + 1]
            return separator.join([name] * abs(attachment))
        return separator.join([generators[base + x] if x > 0 else inverses[base - x]
                               for x in attachment.letters])

    # Replay the sweeps on one heap of (sweep, edge position, far end).  An
    # edge is pushed once, when the first of its ends is reached, and only
    # if its far end is not (an edge with both ends reached, a loop too,
    # never joins): in the same sweep if it lies after the tree edge that
    # reached that end, else in the next one.  Position -1 brings up the root.
    sorted_edges = sorted(g.edges, key=lambda e: e.id)
    position = {e.id: i for i, e in enumerate(sorted_edges)}  # ids are unique once valid
    reached, tree, heap = set(), [], [(0, -1, order[0])]
    while heap:
        sweep, i, new = heapq.heappop(heap)
        if new in reached:
            continue
        reached.add(new)
        tree.append(i)
        for e, slot in incident[new]:
            w = e.endpoints[1 - slot]
            if w not in reached:
                j = position[e.id]
                heapq.heappush(heap, (sweep + (j < i), j, w))
    relations = []
    for i in tree[1:]:  # past position -1, the root's
        (u, v), (a, b) = sorted_edges[i].endpoints, sorted_edges[i].attachments
        relations.append(f"{render(u, a)} = {render(v, b)}")
    in_tree = set(tree)
    non_tree = [e for i, e in enumerate(sorted_edges) if i not in in_tree]
    for k, e in enumerate(non_tree, start=1):
        t = "t" if len(non_tree) == 1 else f"t{k}"
        generators.append(t)
        (u, v), (a, b) = e.endpoints, e.attachments
        relations.append(f"{t} {render(u, a)} {t}^-1 = {render(v, b)}")
    if relations:
        return f"< {', '.join(generators)} | {', '.join(relations)} >"
    return f"< {', '.join(generators)} | >"


# ---------------------------------------------------------------------------
# File format


def parse_gog(text: str) -> GraphOfGroups:
    """Parse the graph-of-groups file format; errors carry line numbers."""
    vertices: dict[str, VertexGroup] = {}
    edges: list[EdgeSpec] = []
    # Each vertex id's token table maps the tokens parsed so far to their
    # attachments; each rank, all cyclic and all opaque vertices share one.
    # Edges are filled through their slots, past the generic record init.
    tables: dict[str, dict] = {}
    ranks: dict[int, tuple[FreeVertex, Alphabet, dict]] = {}
    cyclic, cyclic_table, opaque_table = CyclicVertex(), {}, {}
    set_id, set_endpoints, set_attachments = (
        EdgeSpec.id.__set__, EdgeSpec.endpoints.__set__, EdgeSpec.attachments.__set__)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) < 3:
                raise ParseError("vertex line needs: vertex <id> <kind> [...]", lineno)
            vid, vkind = tokens[1], tokens[2]
            if vid in vertices:
                raise ParseError(f"duplicate vertex id {vid}", lineno)
            if vkind == "free":
                try:
                    rank = int(tokens[3]) if len(tokens) == 4 and tokens[3].isdigit() else 0
                except ValueError:  # digits int() refuses: superscripts, or too many
                    rank = 0
                if rank < 1:
                    raise ParseError("free vertex needs a positive rank", lineno)
                if rank not in ranks:
                    ranks[rank] = FreeVertex(rank), Alphabet(rank), {}
                vertices[vid], _, tables[vid] = ranks[rank]
            elif vkind == "cyclic":
                if len(tokens) != 3:
                    raise ParseError("cyclic vertex takes no extra fields", lineno)
                vertices[vid], tables[vid] = cyclic, cyclic_table
            elif vkind == "opaque":
                if len(tokens) > 4:
                    raise ParseError("opaque vertex takes at most a label", lineno)
                vertices[vid] = OpaqueVertex(tokens[3] if len(tokens) == 4 else "")
                tables[vid] = opaque_table
            else:
                raise ParseError(f"unknown vertex kind {vkind!r}", lineno)
        elif kind == "edge":
            if len(tokens) != 6:
                raise ParseError(
                    "edge line needs: edge <id> <v1> <v2> <attach1> <attach2>", lineno
                )
            eid, v1, v2, a1, a2 = tokens[1:]
            known1, known2 = tables.get(v1), tables.get(v2)
            if known1 is None or known2 is None:
                vid = v1 if known1 is None else v2
                raise ParseError(f"unknown vertex {vid} (declare vertices first)", lineno)
            att1 = known1.get(a1)  # None for a new token, or for "-" at an opaque vertex
            if att1 is None:
                att1 = known1[a1] = _parse_attachment(a1, vertices[v1], ranks, lineno)
            att2 = known2.get(a2)
            if att2 is None:
                att2 = known2[a2] = _parse_attachment(a2, vertices[v2], ranks, lineno)
            edge = object.__new__(EdgeSpec)
            set_id(edge, eid)
            set_endpoints(edge, (v1, v2))
            set_attachments(edge, (att1, att2))
            edges.append(edge)
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    if not vertices:
        raise ParseError("no vertices declared", None)
    return GraphOfGroups(vertices, edges)


def _parse_attachment(token: str, group: VertexGroup, ranks, lineno: int):
    if isinstance(group, FreeVertex):
        try:
            core = _parse_cyclic(token.replace(",", " "), ranks[group.rank][1])[0]
        except InvalidInputError as exc:
            raise ParseError(f"bad attachment word {token!r}: {exc}", lineno)
        if core is None:
            raise ParseError(
                f"trivial edge group: attachment {token!r} reduces to identity", lineno
            )
        return core
    if isinstance(group, CyclicVertex):
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"cyclic attachment must be an integer, got {token!r}", lineno)
        if value == 0:
            raise ParseError("trivial edge group: cyclic attachment is 0", lineno)
        return value
    return None if token == "-" else token


def serialize_gog(g: GraphOfGroups) -> str:
    """Emit the file format; output re-parses to an equivalent graph.

    A vertex id, edge id, label or tag that the format cannot carry is
    refused with UnsupportedExportError: one that is empty or holds
    whitespace or ``#``, and the tag ``-``, which reads back as no tag.
    """
    lines = []
    for vid in sorted(g.vertices):
        grp = g.vertices[vid]
        vid = _token("vertex id", vid)
        if isinstance(grp, FreeVertex):
            lines.append(f"vertex {vid} free {grp.rank}")
        elif isinstance(grp, CyclicVertex):
            lines.append(f"vertex {vid} cyclic")
        else:
            label = getattr(grp, "label", "")
            label = f" {_token('label', label)}" if label else ""
            lines.append(f"vertex {vid} opaque{label}")
    for e in g.edges:
        a1 = _format_attachment(e.attachments[0])
        a2 = _format_attachment(e.attachments[1])
        eid = _token("edge id", e.id)
        lines.append(f"edge {eid} {e.endpoints[0]} {e.endpoints[1]} {a1} {a2}")
    return "\n".join(lines) + "\n"


def _token(kind: str, text: str, *reserved: str) -> str:
    """``text``, if the file format reads it back as this one token."""
    if text.split() != [text] or "#" in text or text in reserved:
        raise UnsupportedExportError(f"{kind} {text!r} cannot be written to the file format")
    return text


def _format_attachment(att) -> str:
    if att is None:
        return "-"
    if isinstance(att, int):
        return str(att)
    if isinstance(att, str):
        return _token("tag", att, "-")
    return format_word(att.letters).replace(" ", ",")
