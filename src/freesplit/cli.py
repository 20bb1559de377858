"""Command-line interface.

Exit status: 0 for any computed verdict (decomposable and
not-one-ended are verdicts, not errors), 1 for parse, validation and
usage errors, 2 for a resource-cap refusal.  Diagnostics go to stderr.

Output is deterministic: identical invocations produce byte-identical
output.  JSON reports always carry the top-level keys ``command``,
``input``, ``verdict``, ``certificate``.
"""

from __future__ import annotations

import functools
import re
import sys
from types import SimpleNamespace

# whitehead, tree, arcs and gog are deferred modules (see __init__), so binding
# them here runs none of them: a command runs only the ones its handler reads.
from . import arcs, gog, tree, whitehead
from .errors import DEFAULT_VERTEX_CAP, FreesplitError, ParseError, ResourceCapError
from .graphs import Multigraph
from .words import (
    Alphabet,
    CyclicWord,
    _parse_cyclic,
    format_letter,
    format_word,
)


def _read_family(args) -> tuple[CyclicWord, ...]:
    """The words, each cyclically reduced; a word that was not already warns."""
    alphabet = Alphabet(args.rank)
    family = []
    for text in args.words:
        core, length = _parse_cyclic(text, alphabet)
        if core is None:
            raise ParseError(f"word {text!r} reduces to the trivial word")
        if len(core.letters) != length:  # shorter exactly when the word was not cyclically reduced
            message = f"word {text!r} auto-reduced to {format_word(core.letters)!r}"
            if args.strict:
                raise ParseError(message + " (--strict)")
            print(f"warning: {message}", file=sys.stderr)
        family.append(core)
    return tuple(family)


# The bytes of a graph-of-groups file that are read, about ten times the
# 20,000-vertex file CI decides (1.7 MB); a longer file is refused unparsed.
_GOG_FILE_BYTES = 1 << 24


def _read_gog(args) -> gog.GraphOfGroups:
    # in 64 KiB reads: one read of the whole budget would allocate all of it
    chunks, size = [], 0
    with open(args.file, "rb") as fh:
        while size <= _GOG_FILE_BYTES and (chunk := fh.read(1 << 16)):
            chunks.append(chunk)
            size += len(chunk)
    if size > _GOG_FILE_BYTES:
        raise ResourceCapError(f"graph-of-groups file has more than {_GOG_FILE_BYTES}"
                               f" bytes (cap {_GOG_FILE_BYTES})")
    data = b"".join(chunks)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", data.count(b"\n", 0, exc.start) + 1)
    return gog.parse_gog(text)


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
    period = functools.cache(format_word)  # each period's label once
    rows = arcs._lines(args.words, ball, sphere=True)
    if args.format == "json":
        labels = ball.labels()
        return None, lambda: {"axes": [
            {"base": labels[v], "period": period(rays.period),
             "trace": [labels[u] for u in arcs._trace_ids((v, last, reach, rays))]}
            for v, last, reach, row in rows for rays in row
        ]}, None, None
    # labels come in id order, as the bases do, and none past the last line's base is built
    labels, lines, at = ball.iter_labels(), [], -1
    for v, _, _, row in rows:
        while row and at < v:
            label, at = next(labels), at + 1
        lines += [f"axis base={label} period={period(rays.period)}" for rays in row]
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

# Flags and positionals, named for the command table below: (dest, option
# strings, type, default, help).  A row without option strings is a
# positional, and a list one takes a run of words.  A bool flag takes no
# value; an int one takes an int.  A default of ... marks a required one.
_ARGUMENTS = {
    "rank": ("rank", ("--rank",), int, ..., "free group rank"),
    "strict": ("strict", ("--strict",), bool, False,
               "reject words that are not already cyclically reduced"),
    "words": ("words", (), list, ..., "cyclic words (letter or numeric form)"),
    "radius": ("radius", ("--radius",), int, None, "ball radius (default 3)"),
    "ball_radius": ("radius", ("--radius",), int, 2, "ball radius (default 2)"),
    "max_radius": ("max_radius", ("--max-radius",), int, None, "largest radius (default 3)"),
    "cap": ("cap", ("--cap",), int, DEFAULT_VERTEX_CAP,
            "ball vertex budget (default 2000000)"),
    "output": ("output", ("-o", "--output"), str, None, "write the file here instead of stdout"),
    "file": ("file", (), str, ..., "graph-of-groups file"),
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


# argv is read as argparse read it with one subparser per _COMMANDS row.
# A level is (prog, about, rows, {option string: row}, defaults, positional
# row); a row's type None is -h/--help, and a dict maps subcommands to
# their levels.
def _level(prog, about, rows, **defaults):
    rows = (("help", ("-h", "--help"), None, None, "show this help message and exit"),) + rows
    defaults.update((row[0], None if row[3] is ... else row[3]) for row in rows[1:])
    flags = {option: row for row in rows for option in row[1]}
    return prog, about, rows, flags, defaults, next((r for r in rows if not r[1]), None)


def _levels():
    levels = {"": _level("freesplit", "Whitehead-graph and arc-system decisions for free"
                         " groups and graphs of groups", (("command", (), {}, ..., None),))}
    for name, about, handler, formats, arguments in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        if handler is None:
            level = levels[name] = _level(f"freesplit {name}", about,
                                          (("analysis", (), {}, ..., None),))
        else:
            rows = (("format", ("--format",), formats, "text", None),)
            rows += tuple(_ARGUMENTS[key] for key in arguments)
            level = _level(f"freesplit {name}", about, rows,
                           handler=handler, name=name.replace(" ", "-"))
        levels[group][5][2][leaf] = level
    return levels[""]


_TOP = _levels()
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(arg, flags):
    """How argparse read an argument that starts with "-" and is no flag:
    None for a word, else (row or None, option string, its value or None)."""
    if len(arg) == 1:
        return None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return flags[name], name, value
    if arg[1] == "-":  # a unique prefix of a long flag
        found = [(flags[o], o, value if eq else None) for o in flags if o.startswith(name)]
    else:  # a short flag run into its value, -ofile
        found = [(flags[arg[:2]], arg[:2], arg[2:])] if arg[:2] in flags else []
    if len(found) > 1:
        raise ParseError(f"ambiguous option: {arg} could match {', '.join(f[1] for f in found)}")
    if found:
        return found[0]
    return None if _NUMBER.match(arg) or " " in arg else (None, arg, None)


def _error(row, message):
    return ParseError(f"argument {'/'.join(row[1]) or row[0]}: {message}")


def _store(values, row, text, level):
    dest, _, kind = row[:3]
    if kind is None:
        sys.stdout.write(_help(level))
        sys.exit(0)
    if kind is int:
        try:
            text = int(text)
        except ValueError:
            raise _error(row, f"invalid int value: {text!r}") from None
    elif kind not in (bool, str) and text not in kind:
        raise _error(row, f"invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
    values[dest] = True if kind is bool else text


def _parse(argv, level):
    """One level of argv: its values, and the arguments it could not place."""
    _, _, rows, flags, values, positional = level
    subs = positional[2] if positional and type(positional[2]) is dict else None
    if subs and argv and argv[0] in subs:  # its level reads the rest
        values, extras = _parse(argv[1:], subs[argv[0]])
        return {positional[0]: argv[0], **values}, extras
    # One kind per argument: O a flag, A a word and - the first "--".
    values, kinds, found = dict(values), "", {}
    for i, arg in enumerate(argv):
        option = (flags[arg], arg, None) if arg in flags else (
            None if arg[:1] != "-" or arg == "--" else _option(arg, flags))
        if option is None and (arg == "--" or subs is not None):  # the rest are words
            kinds += ("-" if arg == "--" else "A") + "A" * (len(argv) - i - 1)
            break
        if option is not None:
            found[i] = option
        kinds += "A" if option is None else "O"
    extras, i, n = [], 0, len(argv)
    while i < n:
        if i in found:
            row, option, text = found[i]
            i += 1
            if row is None:
                extras.append(option)
                continue
            chain = []  # short flags without values run together: -hh
            while text and row[2] in (None, bool) and option[1] != "-":
                chain.append((row, None))
                if "-" + text[0] not in flags:
                    raise _error(row, f"ignored explicit argument {text!r}")
                option = "-" + text[0]
                row, text = flags[option], text[1:] or None
            if row[2] in (None, bool) and text is not None:
                raise _error(row, f"ignored explicit argument {text!r}")
            if row[2] not in (None, bool) and text is None:
                if kinds[i:i + 1] != "A":
                    raise _error(row, "expected one argument")
                text, i = argv[i], i + 1
            for row, text in chain + [(row, text)]:
                _store(values, row, text, level)
            continue
        # a positional: a run of words up to the next flag, one word, or a
        # subcommand and the rest, each perhaps with the "--" around it
        start, j, kind = i + (kinds[i] == "-"), i, positional and positional[2]
        if kind and values[positional[0]] is None and kinds[start:start + 1] == "A":
            j = kinds.find("O", start) if kind is list else start + 1 if kind is str else n
            j = n if j < 0 else j + (kind is str and kinds[j:j + 1] == "-")
        if j == i:
            j = min((k for k in found if k > i), default=n)
            extras += argv[i:j]
        elif subs is not None:
            if argv[i] not in subs:
                choices = ", ".join(map(repr, subs))
                raise _error(positional, f"invalid choice: {argv[i]!r} (choose from {choices})")
            sub_values, sub_extras = _parse(argv[i + 1:], subs[argv[i]])
            values.update(sub_values, **{positional[0]: argv[i]})
            extras += sub_extras
        else:
            words = argv[i:j]
            if "--" in words:
                words.remove("--")
            values[positional[0]] = words if kind is list else words[0]
        i = j
    missing = ["/".join(r[1]) or r[0] for r in rows if r[3] is ... and values[r[0]] is None]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    return values, extras


def _help(level):
    """A level's usage line and one line per row and subcommand."""
    prog, about, rows, _, _, positional = level
    subs = positional[2] if positional and type(positional[2]) is dict else {}
    usage, lines = [], []
    for dest, options, kind, default, text in rows:
        if not options:
            name = "{" + ",".join(kind) + "}" if subs else dest
            usage.append(name + (" ..." if subs else f" [{dest} ...]" if kind is list else ""))
            lines.append(f"  {name:<21} {text or ''}".rstrip())
            continue
        value = ("" if kind in (None, bool) else
                 " {" + ",".join(kind) + "}" if type(kind) is tuple else " " + dest.upper())
        usage.append(options[0] + value if default is ... else f"[{options[0]}{value}]")
        lines.append(f"  {', '.join(o + value for o in options):<21} {text or ''}".rstrip())
    lines += [f"    {name:<19} {sub[1]}" for name, sub in subs.items()]
    return "\n".join([f"usage: {prog} {' '.join(usage)}", "", about, ""] + lines) + "\n"


def parse_args(argv) -> SimpleNamespace:
    """The values of argv, read as by the argparse parser that the command
    table used to build.  -h or --help prints the help text and exits 0."""
    values, extras = _parse(argv, _TOP)
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if hasattr(args, "words"):
            args.words = _read_family(args)
        verdict, certificate, lines, dot = args.handler(args)
        if args.format == "dot":
            output = dot()
        elif args.format == "json" and certificate is not None:
            import json
            data = {key: getattr(args, key) for key in _INPUT
                    if getattr(args, key, None) is not None}
            if "words" in data:
                data["words"] = _render_words(data["words"])
            report = {"command": args.name, "input": data, "verdict": verdict,
                      "certificate": certificate()}
            output = json.dumps(report, indent=2) + "\n"
        else:
            output = "\n".join(lines) + "\n"
    except (FreesplitError, OSError) as exc:
        message = str(exc).replace("\n", "\\n").replace("\r", "\\r")  # one line
        print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, ResourceCapError) else 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
