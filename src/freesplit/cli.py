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
    _cyclic_core,
    format_letter,
    format_word,
    is_cyclically_reduced,
    parse_word,
)


def _read_family(args) -> tuple[CyclicWord, ...]:
    """The words, each cyclically reduced; a word that was not already warns."""
    alphabet = Alphabet(args.rank)
    family = []
    for text in args.words:
        raw = parse_word(text, alphabet)
        core = _cyclic_core(raw)[0]
        if core is None:
            raise ParseError(f"word {text!r} reduces to the trivial word")
        if not is_cyclically_reduced(raw):
            message = f"word {text!r} auto-reduced to {format_word(core.letters)!r}"
            if args.strict:
                raise ParseError(message + " (--strict)")
            print(f"warning: {message}", file=sys.stderr)
        family.append(core)
    return tuple(family)


def _read_gog(args) -> gog.GraphOfGroups:
    with open(args.file, encoding="utf-8") as fh:
        return gog.parse_gog(fh.read())


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


def _sides_payload(bipartition) -> list[list[str]]:
    return [[format_letter(i) for i in sorted(side)] for side in bipartition]


def _bipartition_text(bipartition) -> str:
    left, right = _sides_payload(bipartition)
    return "{" + ",".join(left) + "}|{" + ",".join(right) + "}"


# Each handler returns (verdict, certificate, text lines, dot): certificate
# makes the JSON certificate, dot makes the DOT text for the commands that
# offer it.  A report without a certificate prints its text in any format.


def _cmd_graph(args):
    graph = whitehead.build_whitehead_graph(Alphabet(args.rank), args.words)
    lines = _edge_lines(graph) + [f"total {graph.total_edges()}"]
    return (None, lambda: {"graph": _graph_payload(graph)}, lines,
            lambda: graph.to_dot("whitehead", label=format_letter))


def _cmd_minimize(args):
    minimized, trace = whitehead.minimize(Alphabet(args.rank), args.words)
    certificate = lambda: {
        "minimized": _render_words(minimized),
        "steps": _steps_payload(trace),
        "automorphism": _map_payload(trace.composite),
    }
    lines = [
        f"step {i + 1}: multiplier {format_letter(s.automorphism.multiplier)}"
        f" side {{{','.join(sorted(format_letter(x) for x in s.automorphism.side))}}}"
        f" length {s.length_before} -> {s.length_after}"
        for i, s in enumerate(trace.steps)
    ]
    lines.append("minimized: " + " ".join(_render_words(minimized)))
    return None, certificate, lines, None


def _cmd_indecomposable(args):
    verdict = whitehead.decide_indecomposable(Alphabet(args.rank), args.words)
    certificate = lambda: {
        "minimized": _render_words(verdict.minimized),
        "graph": _graph_payload(verdict.graph),
        "steps": _steps_payload(verdict.trace),
        "automorphism": _map_payload(verdict.automorphism),
        "bipartition": (None if verdict.bipartition is None
                        else _sides_payload(verdict.bipartition)),
    }
    if verdict.is_indecomposable:
        lines = ["INDECOMPOSABLE"]
    else:
        lines = [f"DECOMPOSABLE {_bipartition_text(verdict.bipartition)}"]
    return verdict.decision, certificate, lines, None


def _cmd_basis(args):
    ok, witness = whitehead.recognize_basis(Alphabet(args.rank), args.words)
    return ("basis" if ok else "not-a-basis",
            lambda: {"automorphism": _map_payload(witness)} if ok else None,
            ["BASIS" if ok else "NOT A BASIS"], None)


def _tree_lines(args):
    """The ball (radius 3 unless given) and the lines based strictly inside it."""
    radius = args.radius if args.radius is not None else 3
    ball = tree.build_ball(Alphabet(args.rank), radius, cap=args.cap)
    return ball, arcs._lines(args.words, ball)


def _cmd_tree_ball(args):
    ball = tree.build_ball(Alphabet(args.rank), args.radius, cap=args.cap)
    counts = {"vertices": ball.vertex_count(), "edges": ball.edge_count()}
    return None, lambda: counts, [f"{k} {n}" for k, n in counts.items()], ball.to_dot


def _cmd_tree_profile(args):
    max_radius = args.max_radius if args.max_radius is not None else 3
    profile = arcs.class_count_profile(Alphabet(args.rank), args.words, max_radius,
                                       cap=args.cap)
    return (None, lambda: {"profile": [{"radius": r, "classes": c} for r, c in profile]},
            [f"radius {r}: {c}" for r, c in profile], None)


def _cmd_tree_axes(args):
    ball = _tree_lines(args)[0]
    # labels of the vertices by id, and of each period once
    labels, period = ball.labels(), functools.cache(format_word)
    if args.format == "json":
        axes = arcs.enumerate_axes(args.words, ball)
        return None, lambda: {"axes": [
            {"base": labels[a.base_id], "period": period(a.period),
             "trace": [labels[v] for v in arcs._trace_ids(a.line)]}
            for a in axes
        ]}, None, None
    lines = [f"axis base={labels[v]} period={period(rays.period)}"
             for v, _, _, rays in arcs._lines(args.words, ball, sphere=True)]
    lines.append(f"total {len(lines)}")
    return None, None, lines, None


def _cmd_tree_counts(args):
    ball, lines = _tree_lines(args)
    counts = arcs._child_counts(ball, lines)
    labels = ball.labels()
    rows = sorted((labels[p], labels[v], counts[v]) for v, p in enumerate(ball.parents(), 1))
    return (None, lambda: {"counts": [{"edge": [u, v], "count": c} for u, v, c in rows]},
            [f"{u} -- {v}: {c}" for u, v, c in rows], None)


def _cmd_tree_certificate(args):
    cert = arcs._certificate(*_tree_lines(args))
    witness = None if cert.witness is None else format_word(cert.witness)
    return ("certified" if cert.certified else "not-certified",
            lambda: {"witness": witness},
            ["CERTIFIED" if cert.certified else f"NOT CERTIFIED (vertex {witness})"], None)


def _cmd_tree_star(args):
    """The interval-gluing graph of the origin star."""
    graph = arcs._star_graph(*_tree_lines(args), ())
    return (None, lambda: {"graph": _graph_payload(graph)}, _edge_lines(graph),
            lambda: graph.to_dot("star", label=format_letter))


def _cmd_one_ended(args):
    verdict = gog.one_ended(_read_gog(args))
    witness = verdict.witness

    def certificate():
        if verdict.is_one_ended:
            return None
        out = {"vertex": verdict.witness_vertex, "reason": verdict.reason}
        if witness is not None and witness.bipartition is not None:
            out["bipartition"] = _sides_payload(witness.bipartition)
        return out

    if verdict.is_one_ended:
        line = "ONE-ENDED"
    elif witness is not None:
        line = (f"NOT ONE-ENDED (vertex {verdict.witness_vertex}:"
                f" factor split {_bipartition_text(witness.bipartition)})")
    else:
        line = f"NOT ONE-ENDED (vertex {verdict.witness_vertex}: {verdict.reason})"
    return verdict.decision, certificate, [line], None


def _cmd_double(args):
    text = gog.serialize_gog(gog.double(Alphabet(args.rank), args.words))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return None, None, [f"wrote {args.output}"], None
    return None, lambda: {"file": text}, text.splitlines(), None


def _cmd_present(args):
    text = gog.presentation(_read_gog(args))
    return None, lambda: {"presentation": text}, [text], None


_FAMILY = ("rank", "strict", "words")
_TREE_FAMILY = ("rank", "radius", "cap", "strict", "words")
# Parsed values that a JSON report echoes as its input, when set.
_INPUT = ("rank", "words", "radius", "max_radius", "file")
_PLAIN = ("text", "json")
_WITH_DOT = ("text", "dot", "json")

# Flags and positionals, named for the command table below.
_ARGUMENTS = {
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

# (name, help, handler, formats, arguments).  A "tree X" row is an analysis
# under the "tree" row, whose handler is None.
_COMMANDS = (
    ("graph", "Whitehead graph of a word family", _cmd_graph, _WITH_DOT, _FAMILY),
    ("minimize", "Whitehead length minimization", _cmd_minimize, _PLAIN, _FAMILY),
    ("indecomposable", "decide indecomposability", _cmd_indecomposable, _PLAIN, _FAMILY),
    ("basis", "recognise a free basis up to conjugacy", _cmd_basis, _PLAIN, _FAMILY),
    ("tree", "Cayley-tree ball and arc-system analyses", None, (), ()),
    ("tree ball", "ball vertex and edge counts", _cmd_tree_ball, _WITH_DOT,
     ("rank", "ball_radius", "cap")),
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
        p.set_defaults(handler=handler, name=name.replace(" ", "-"))
        p.add_argument("--format", choices=formats, default="text")
        for key in arguments:
            flags, options = _ARGUMENTS[key]
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "words" in args:
            args.words = _read_family(args)
        verdict, certificate, lines, dot = args.handler(args)
        if args.format == "dot":
            output = dot()
        elif args.format == "json" and certificate is not None:
            data = {key: getattr(args, key) for key in _INPUT
                    if getattr(args, key, None) is not None}
            if "words" in data:
                data["words"] = _render_words(data["words"])
            report = {"command": args.name, "input": data, "verdict": verdict,
                      "certificate": certificate()}
            output = json.dumps(report, indent=2) + "\n"
        else:
            output = "\n".join(lines) + "\n"
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
