"""Command-line interface.

Exit status: 0 for any computed verdict (decomposable and
not-one-ended are verdicts, not errors), 1 for parse, validation and
usage errors, 2 for a resource-cap refusal.  Diagnostics go to stderr.

Output is deterministic: identical invocations produce byte-identical
output.  JSON reports always carry the top-level keys ``command``,
``input``, ``verdict``, ``certificate``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import arcs, gog, tree, whitehead
from .errors import FreesplitError, ParseError, ResourceCapError
from .graphs import Multigraph
from .words import (
    Alphabet,
    CyclicWord,
    cyclic_reduce,
    format_letter,
    format_word,
    is_cyclically_reduced,
    parse_word,
)


def _read_family(args) -> tuple[Alphabet, tuple[CyclicWord, ...]]:
    alphabet = Alphabet(args.rank)
    family = []
    for text in args.words:
        raw = parse_word(text, alphabet)
        core, _ = cyclic_reduce(raw)
        if core is None:
            raise ParseError(f"word {text!r} reduces to the trivial word")
        if not is_cyclically_reduced(raw) or tuple(raw) != core.letters:
            message = f"word {text!r} auto-reduced to {format_word(core.letters)!r}"
            if args.strict:
                raise ParseError(message + " (--strict)")
            print(f"warning: {message}", file=sys.stderr)
        family.append(core)
    return alphabet, tuple(family)


def _render_words(family) -> list[str]:
    return [format_word(w.letters) for w in family]


def _graph_payload(graph: Multigraph) -> dict:
    return {
        "vertices": [format_letter(x) for x in graph.vertices],
        "edges": [[format_letter(u), format_letter(v), m] for u, v, m in graph.edges()],
    }


def _edge_lines(graph: Multigraph) -> list[str]:
    return [f"{format_letter(u)} -- {format_letter(v)} x{m}" for u, v, m in graph.edges()]


def _steps_payload(trace: whitehead.MinimizationTrace) -> list[dict]:
    out = []
    for step in trace.steps:
        move = step.automorphism
        out.append({
            "multiplier": format_letter(move.multiplier),
            "side": sorted((format_letter(x) for x in move.side)),
            "before": step.length_before,
            "after": step.length_after,
        })
    return out


def _map_payload(mapping) -> dict:
    return {"images": [format_word(img) for img in mapping.images]}


def _bipartition_text(bipartition) -> str:
    left, right = bipartition
    fmt = lambda side: "{" + ",".join(format_letter(i) for i in sorted(side)) + "}"
    return f"{fmt(left)}|{fmt(right)}"


def _emit(payload: dict, fmt: str, text_lines: list[str], dot=None) -> str:
    """Render one report; ``dot`` makes the DOT text, for commands that offer it."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "dot":
        return dot()
    return "\n".join(text_lines) + "\n"


def _cmd_graph(args) -> str:
    alphabet, family = _read_family(args)
    graph = whitehead.build_whitehead_graph(alphabet, family)
    payload = {
        "command": "graph",
        "input": {"rank": alphabet.rank, "words": _render_words(family)},
        "verdict": None,
        "certificate": {"graph": _graph_payload(graph)},
    }
    lines = _edge_lines(graph) + [f"total {graph.total_edges()}"]
    return _emit(payload, args.format, lines,
                 lambda: graph.to_dot("whitehead", label=format_letter))


def _cmd_minimize(args) -> str:
    alphabet, family = _read_family(args)
    minimized, trace = whitehead.minimize(alphabet, family)
    payload = {
        "command": "minimize",
        "input": {"rank": alphabet.rank, "words": _render_words(family)},
        "verdict": None,
        "certificate": {
            "minimized": _render_words(minimized),
            "steps": _steps_payload(trace),
            "automorphism": _map_payload(trace.composite),
        },
    }
    lines = [
        f"step {i + 1}: multiplier {format_letter(s.automorphism.multiplier)}"
        f" side {{{','.join(sorted(format_letter(x) for x in s.automorphism.side))}}}"
        f" length {s.length_before} -> {s.length_after}"
        for i, s in enumerate(trace.steps)
    ]
    lines.append("minimized: " + " ".join(_render_words(minimized)))
    return _emit(payload, args.format, lines)


def _cmd_indecomposable(args) -> str:
    alphabet, family = _read_family(args)
    verdict = whitehead.decide_indecomposable(alphabet, family)
    certificate: dict = {
        "minimized": _render_words(verdict.minimized),
        "graph": _graph_payload(verdict.graph),
        "steps": _steps_payload(verdict.trace),
        "automorphism": _map_payload(verdict.automorphism),
        "bipartition": None,
    }
    if verdict.bipartition is not None:
        certificate["bipartition"] = [
            [format_letter(i) for i in sorted(side)] for side in verdict.bipartition
        ]
    payload = {
        "command": "indecomposable",
        "input": {"rank": alphabet.rank, "words": _render_words(family)},
        "verdict": verdict.decision,
        "certificate": certificate,
    }
    if verdict.is_indecomposable:
        lines = ["INDECOMPOSABLE"]
    else:
        lines = [f"DECOMPOSABLE {_bipartition_text(verdict.bipartition)}"]
    return _emit(payload, args.format, lines)


def _cmd_basis(args) -> str:
    alphabet, family = _read_family(args)
    ok, witness = whitehead.recognize_basis(alphabet, family)
    payload = {
        "command": "basis",
        "input": {"rank": alphabet.rank, "words": _render_words(family)},
        "verdict": "basis" if ok else "not-a-basis",
        "certificate": {"automorphism": _map_payload(witness)} if ok else None,
    }
    lines = ["BASIS" if ok else "NOT A BASIS"]
    return _emit(payload, args.format, lines)


def _tree_input(args, alphabet, family) -> dict:
    data = {"rank": alphabet.rank, "words": _render_words(family)}
    for key in ("radius", "max_radius"):
        if vars(args).get(key) is not None:
            data[key] = vars(args)[key]
    return data


def _tree_axes(args):
    """Ball (radius 3 unless given), the axes meeting it, and the report's input."""
    alphabet, family = _read_family(args)
    radius = args.radius if args.radius is not None else 3
    ball = tree.build_ball(alphabet, radius, cap=args.cap)
    return ball, arcs.enumerate_axes(family, ball), _tree_input(args, alphabet, family)


def _cmd_tree_ball(args) -> str:
    alphabet = Alphabet(args.rank)
    radius = args.radius if args.radius is not None else 2
    ball = tree.build_ball(alphabet, radius, cap=args.cap)
    payload = {
        "command": "tree-ball",
        "input": {"rank": alphabet.rank, "radius": radius},
        "verdict": None,
        "certificate": {"vertices": ball.vertex_count(), "edges": ball.edge_count()},
    }
    lines = [f"vertices {ball.vertex_count()}", f"edges {ball.edge_count()}"]
    return _emit(payload, args.format, lines, ball.to_dot)


def _cmd_tree_profile(args) -> str:
    alphabet, family = _read_family(args)
    max_radius = args.max_radius if args.max_radius is not None else 3
    profile = arcs.class_count_profile(alphabet, family, max_radius, cap=args.cap)
    payload = {
        "command": "tree-profile",
        "input": _tree_input(args, alphabet, family),
        "verdict": None,
        "certificate": {"profile": [{"radius": r, "classes": c} for r, c in profile]},
    }
    lines = [f"radius {r}: {c}" for r, c in profile]
    return _emit(payload, args.format, lines)


def _cmd_tree_axes(args) -> str:
    _, axes, data = _tree_axes(args)
    payload = {
        "command": "tree-axes",
        "input": data,
        "verdict": None,
        "certificate": {
            "axes": [
                {
                    "base": format_word(a.base),
                    "period": format_word(a.period),
                    "trace": [format_word(v) for v in a.trace],
                }
                for a in axes
            ]
        },
    }
    lines = [f"axis base={format_word(a.base)} period={format_word(a.period)}" for a in axes]
    lines.append(f"total {len(axes)}")
    return _emit(payload, args.format, lines)


def _cmd_tree_counts(args) -> str:
    ball, axes, data = _tree_axes(args)
    counts = arcs.edge_counts(axes)
    rows = []
    for u, v in ball.edges():
        count = counts.get(frozenset((u, v)), 0)
        rows.append((format_word(u), format_word(v), count))
    rows.sort(key=lambda r: (r[0], r[1]))
    payload = {
        "command": "tree-counts",
        "input": data,
        "verdict": None,
        "certificate": {"counts": [{"edge": [u, v], "count": c} for u, v, c in rows]},
    }
    lines = [f"{u} -- {v}: {c}" for u, v, c in rows]
    return _emit(payload, args.format, lines)


def _cmd_tree_certificate(args) -> str:
    ball, axes, data = _tree_axes(args)
    cert = arcs.lemma33_certificate(ball, axes)
    witness = None if cert.witness is None else format_word(cert.witness)
    payload = {
        "command": "tree-certificate",
        "input": data,
        "verdict": "certified" if cert.certified else "not-certified",
        "certificate": {"witness": witness},
    }
    lines = ["CERTIFIED" if cert.certified else f"NOT CERTIFIED (vertex {witness})"]
    return _emit(payload, args.format, lines)


def _cmd_tree_star(args) -> str:
    """The interval-gluing graph of the origin star."""
    ball, axes, data = _tree_axes(args)
    graph = arcs.star_graph(ball, axes, ())
    payload = {
        "command": "tree-star",
        "input": data,
        "verdict": None,
        "certificate": {"graph": _graph_payload(graph)},
    }
    return _emit(payload, args.format, _edge_lines(graph),
                 lambda: graph.to_dot("star", label=format_letter))


def _cmd_one_ended(args) -> str:
    with open(args.file, encoding="utf-8") as fh:
        graph = gog.parse_gog(fh.read())
    verdict = gog.one_ended(graph)
    certificate = None
    if not verdict.is_one_ended:
        certificate = {"vertex": verdict.witness_vertex, "reason": verdict.reason}
        if verdict.witness is not None and verdict.witness.bipartition is not None:
            certificate["bipartition"] = [
                [format_letter(i) for i in sorted(side)]
                for side in verdict.witness.bipartition
            ]
    payload = {
        "command": "one-ended",
        "input": {"file": args.file},
        "verdict": verdict.decision,
        "certificate": certificate,
    }
    if verdict.is_one_ended:
        lines = ["ONE-ENDED"]
    elif verdict.witness is not None:
        lines = [
            f"NOT ONE-ENDED (vertex {verdict.witness_vertex}:"
            f" factor split {_bipartition_text(verdict.witness.bipartition)})"
        ]
    else:
        lines = [f"NOT ONE-ENDED (vertex {verdict.witness_vertex}: {verdict.reason})"]
    return _emit(payload, args.format, lines)


def _cmd_double(args) -> str:
    alphabet, family = _read_family(args)
    graph = gog.double(alphabet, family)
    text = gog.serialize_gog(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return f"wrote {args.output}\n"
    if args.format == "json":
        payload = {
            "command": "double",
            "input": {"rank": alphabet.rank, "words": _render_words(family)},
            "verdict": None,
            "certificate": {"file": text},
        }
        return json.dumps(payload, indent=2) + "\n"
    return text


def _cmd_present(args) -> str:
    with open(args.file, encoding="utf-8") as fh:
        graph = gog.parse_gog(fh.read())
    text = gog.presentation(graph)
    payload = {
        "command": "present",
        "input": {"file": args.file},
        "verdict": None,
        "certificate": {"presentation": text},
    }
    return _emit(payload, args.format, [text])


_FAMILY = ("rank", "strict", "words")
_TREE_FAMILY = ("rank", "radius", "cap", "strict", "words")
_PLAIN = ("text", "json")
_WITH_DOT = ("text", "dot", "json")

# Flags and positionals, named for the command table below.
_ARGUMENTS = {
    "rank": (("--rank",), {"type": int, "required": True, "help": "free group rank"}),
    "strict": (("--strict",), {"action": "store_true",
                               "help": "reject words that are not already cyclically reduced"}),
    "words": (("words",), {"nargs": "+", "help": "cyclic words (letter or numeric form)"}),
    "radius": (("--radius",), {"type": int, "help": "ball radius (default 2 for ball, else 3)"}),
    "max_radius": (("--max-radius",), {"type": int, "help": "largest radius (default 3)"}),
    "cap": (("--cap",), {"type": int, "default": tree.DEFAULT_VERTEX_CAP,
                         "help": "ball vertex budget (default 2000000)"}),
    "output": (("-o", "--output"), {"help": "write the file here instead of stdout"}),
    "file": (("file",), {"help": "graph-of-groups file"}),
}

# (name, help, handler, formats, arguments).  A "tree X" row is an analysis
# under the "tree" row, whose handler is None.
_COMMANDS = (
    ("graph", "Whitehead graph of a word family", _cmd_graph, _WITH_DOT, _FAMILY),
    ("minimize", "Whitehead length minimization", _cmd_minimize, _PLAIN, _FAMILY),
    ("indecomposable", "decide indecomposability", _cmd_indecomposable, _PLAIN, _FAMILY),
    ("basis", "recognise a free basis up to conjugacy", _cmd_basis, _PLAIN, _FAMILY),
    ("tree", "Cayley-tree ball and arc-system analyses", None, (), ()),
    ("tree ball", "ball vertex and edge counts", _cmd_tree_ball, _WITH_DOT,
     ("rank", "radius", "cap")),
    ("tree axes", "axes meeting the ball", _cmd_tree_axes, _PLAIN, _TREE_FAMILY),
    ("tree counts", "per-edge axis counts", _cmd_tree_counts, _PLAIN, _TREE_FAMILY),
    ("tree certificate", "all-stars 2-vertex-connectivity certificate",
     _cmd_tree_certificate, _PLAIN, _TREE_FAMILY),
    ("tree profile", "end-class counts per radius", _cmd_tree_profile, _PLAIN,
     ("rank", "max_radius", "cap", "strict", "words")),
    ("tree star", "origin star gluing graph", _cmd_tree_star, _WITH_DOT, _TREE_FAMILY),
    ("one-ended", "decide one-endedness of a graph of groups", _cmd_one_ended, _PLAIN,
     ("file",)),
    ("double", "emit the double of a free group in a family", _cmd_double, _PLAIN,
     _FAMILY + ("output",)),
    ("present", "presentation of a graph-of-groups fundamental group", _cmd_present,
     _PLAIN, ("file",)),
)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit 1 like any other bad input."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built from _COMMANDS once per process and shared."""
    parser = _Parser(
        prog="freesplit",
        description="Whitehead-graph and arc-system decisions for free groups"
        " and graphs of groups",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_text, handler, formats, arguments in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=help_text)
        if handler is None:
            groups[name] = p.add_subparsers(dest="analysis", required=True)
            continue
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=formats, default="text")
        for key in arguments:
            flags, options = _ARGUMENTS[key]
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        output = args.handler(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FreesplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
