"""Run one workload's op list in a fresh process and record what happened.

Usage: python3 bench/worker.py OPS_JSON RESULT_JSON --seconds S --trace 0|1

Each op is one in-process ``freesplit.cli.main(argv)`` call with stdout
and stderr captured.  Ops run back to back in one thread (a closed loop
with one client).

With ``--trace 0`` the op list is run in passes until ``--seconds`` is
spent (at least one pass); every pass after the first must repeat the
first pass's exit codes and stdout byte for byte.

With ``--trace 1`` the worker runs one untraced reference pass, one pass
with spans and counters on the public functions of every layer (see
``TARGETS``), and one pass under tracemalloc.  Both later passes must print
exactly what the reference pass printed.  The spans are written next to
RESULT_JSON when the run ends.

Only the standard library and freesplit are imported here, so the peak RSS
the worker reports belongs to the program and this loop alone.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import tracemalloc
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute, counter hook).  A dotted attribute is a method and is
# replaced on its class; a plain one is replaced in every freesplit module
# that holds it, since e.g. cli and gog bind ``cyclic_reduce`` by name.
TARGETS = [
    ("words", "free_reduce", None),
    ("words", "canonical_rotation", "rotation_letters"),
    ("words", "cyclic_reduce", None),
    ("words", "FreeGroupMap.apply_cyclic", None),
    ("whitehead", "minimize", "descent_steps"),
    ("whitehead", "build_whitehead_graph", None),
    ("whitehead", "decide_indecomposable", "free_vertex_decision"),
    ("whitehead", "whitehead_moves", "moves"),
    ("graphs", "Multigraph.__init__", "multigraph_build"),
    ("graphs", "Multigraph.components", None),
    ("graphs", "Multigraph.articulation_points", None),
    ("tree", "build_ball", "ball_vertices"),
    ("arcs", "enumerate_axes", "axes"),
    ("arcs", "lemma33_certificate", None),
    ("arcs", "edge_counts", None),
    ("arcs", "class_count_profile", None),
    ("gog", "parse_gog", None),
    ("gog", "validate", None),
    ("gog", "one_ended", None),
    ("gog", "presentation", None),
    ("cli", "main", None),
]

COUNTERS = (
    "words.canonical_rotation.letters", "whitehead.moves_tried", "whitehead.descent_steps",
    "graphs.multigraph_builds", "tree.ball_vertices", "arcs.axis_generations",
    "arcs.distinct_axes", "arcs.stars_checked", "gog.free_vertex_decisions",
)

# Hooks that only count; they record no span and return the call's result.
# The other hooks run before and after their span and return nothing.
COUNT_ONLY = {"moves", "multigraph_build"}


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays, plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.span_name[top]]

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span_wrapper(self, name, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, args, None, before=True)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if hook is not None:
                hook(self, args, result, before=False)
            return result

        return wrapper

    def _count_wrapper(self, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            return hook(self, args, result, before=False)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "freesplit" or n.startswith("freesplit.")]
        for module_name, attr, hook_name in TARGETS:
            module = sys.modules[f"freesplit.{module_name}"]
            hook = HOOKS.get(hook_name)
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                sites = [(owner, method)]
            else:
                original = getattr(module, attr)
                sites = [(m, key) for m in modules for key, value in vars(m).items()
                         if value is original]
            if hook_name in COUNT_ONLY:
                wrapper = self._count_wrapper(original, hook)
            else:
                wrapper = self._span_wrapper(name, original, hook)
            for owner, key in sites:
                self._patches.append((owner, key, original))
                setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time (span minus its child spans) per span name."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
        return calls, self_s

    def write(self, path: Path, op_first_span: list[int]) -> None:
        with open(path, "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {
            "spans": len(self.span_name),
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "names": self.names,
            "op_first_span": op_first_span,
        }
        path.with_name(path.name + ".json").write_text(json.dumps(header) + "\n")


def _rotation_letters(tracer, args, result, before):
    if before:
        tracer.bump("words.canonical_rotation.letters", len(args[0]))


def _descent_steps(tracer, args, result, before):
    if not before:
        tracer.bump("whitehead.descent_steps", len(result[1].steps))


def _free_vertex_decision(tracer, args, result, before):
    if before and tracer.current() == "gog.one_ended":
        tracer.bump("gog.free_vertex_decisions")


def _moves(tracer, args, result, before):
    def counted():
        for move in result:
            tracer.bump("whitehead.moves_tried")
            yield move

    return counted()


def _multigraph_build(tracer, args, result, before):
    tracer.bump("graphs.multigraph_builds")
    if tracer.current() == "arcs.lemma33_certificate":
        tracer.bump("arcs.stars_checked")
    return result


def _ball_vertices(tracer, args, result, before):
    if not before:
        tracer.bump("tree.ball_vertices", len(result.vertices))


def _axes(tracer, args, result, before):
    # Generations counted from outside: every ball vertex times every
    # distinct rotation of every distinct family word.
    if before:
        family, ball = args[0], args[1]
        rotations = sum(len({w.letters[i:] + w.letters[:i] for i in range(len(w.letters))})
                        for w in set(family))
        tracer.bump("arcs.axis_generations", len(ball.vertices) * rotations)
    else:
        tracer.bump("arcs.distinct_axes", len(result))


HOOKS = {
    "rotation_letters": _rotation_letters,
    "descent_steps": _descent_steps,
    "free_vertex_decision": _free_vertex_decision,
    "moves": _moves,
    "multigraph_build": _multigraph_build,
    "ball_vertices": _ball_vertices,
    "axes": _axes,
}


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                     "error": error}


def run_pass(cli, ops, reference=None, tracer=None):
    """One pass over the op list.

    Returns (wall seconds, per-op seconds, outcomes, per-op counters,
    first span index per op).  Given a reference pass, outcomes are not
    kept: the list holds the indices of ops whose exit code or stdout
    differs from the reference.
    """
    times, outcomes, op_counts, op_first_span = [], [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            op_first_span.append(len(tracer.span_name))
        elapsed, outcome = run_op(cli, op["argv"])
        times.append(elapsed)
        if reference is None:
            outcomes.append(outcome)
        elif (outcome["code"], outcome["stdout"]) != (reference[i]["code"],
                                                      reference[i]["stdout"]):
            outcomes.append(i)
        if tracer is not None:
            op_counts.append(tracer.counts)
            tracer.counts = {}
    wall = time.perf_counter() - start
    return wall, times, outcomes, op_counts, op_first_span


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("ops")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from freesplit import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"freesplit imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 1
    ops = json.loads(Path(args.ops).read_text())
    # "differing" holds, for every pass after the reference pass, the ops
    # whose exit code or stdout changed.
    result: dict = {"passes": [], "differing": []}

    wall, times, reference, _, _ = run_pass(cli, ops)
    result["passes"].append({"wall_s": wall, "times": times})
    result["outcomes"] = reference

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, _, traced_diff, op_counts, op_first_span = run_pass(
                cli, ops, reference, tracer)
        finally:
            tracer.uninstall()
        calls, self_s = tracer.layer_totals()
        spans_path = Path(args.result).with_suffix(".spans")
        tracer.write(spans_path, op_first_span)

        tracemalloc.start()
        _, _, malloc_diff, _, _ = run_pass(cli, ops, reference)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        result["trace"] = {
            "wall_s": traced_wall,
            "calls": calls,
            "self_s": self_s,
            "counts": {name: sum(c.get(name, 0) for c in op_counts) for name in COUNTERS},
            "op_counts": op_counts,
            "spans": len(tracer.span_name),
            "spans_file": str(spans_path),
            "tracemalloc_peak_mb": peak / 2**20,
        }
        result["differing"] += [traced_diff, malloc_diff]
    else:
        began = time.perf_counter() - wall
        while time.perf_counter() - began + wall <= args.seconds:
            wall, times, diff, _, _ = run_pass(cli, ops, reference)
            result["passes"].append({"wall_s": wall, "times": times})
            result["differing"].append(diff)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
