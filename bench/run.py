"""The freesplit benchmark: time to verdict end to end, and cost by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of ``freesplit`` command lines built from the
seed (``corpus.py``); the program sees only the generated argv and files.
The ops run in a fresh worker process (``worker.py``) as a closed loop
with one client, and every answer is checked against one known by
construction.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it repeat the metrics with units and
sample counts, the failures, per-group scaling rows and the machine.  A
full record, including the scaling rows, goes to
``.bench_work/results/``; a traced run also writes its spans, and the
op list and input files stay in ``.bench_work/<workload>-s<seed>-t<trace>/``.

End-to-end metrics.  Each op's time to verdict is its mean over the
passes of a run.  On a shared host the machine's speed drifts by tens of
percent over seconds to minutes; the mean over every pass of a run varied
less from run to run than the median or the minimum did, since it weighs
the whole run rather than the few passes nearest the middle or the
fastest moment:
  wall_s          time to every verdict in the list: the sum of those times
  verdict_p50_ms  median of the per-op times
  verdict_p90_ms  their 90th percentile (nearest rank; at least 100 ops, so
                  at least ten lie beyond it)
  peak_rss_mb     ru_maxrss of the worker, a fresh process running the workload
  setup_s         median over fresh interpreters of start plus
                  ``import freesplit.cli``, up to the first op; half the
                  starts run before the worker and half after it, so that
                  they see the machine at both ends of the run
fail_ratio (failed ops / ops attempted) is printed with them but is not a
metric in BENCHMARK.json, since it is 0 whenever nothing fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_STARTS = 8  # before the worker, and as many again after it
WORKER_TIMEOUT_S = 150
# A run ends, with a result or with an error, within 180 s.
DEADLINE_S = 170
SETUP_PROBE = ("import sys; sys.path.insert(0, 'src'); import freesplit.cli;"
               " sys.stdout.write('ready\\n'); sys.stdout.flush()")

# How each workload groups its ops for the scaling rows, and the growth
# model fitted to median op time per group: "power" fits t ~ x^k,
# "exponential" fits t ~ b^x.
GROUPING = {
    "word-rank": ("rank", "exponential"),
    "word-long": ("length", "power"),
    "ball": ("radius", "exponential"),
    "gog": ("vertices", "power"),
}
SCALING_COUNTS = [
    "whitehead.moves_tried", "whitehead.descent_steps", "words.canonical_rotation.letters",
    "tree.ball_vertices", "arcs.axis_generations", "arcs.distinct_axes",
    "gog.free_vertex_decisions",
]


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def setup_times() -> list[float]:
    """Seconds from spawning an interpreter until it has imported freesplit.cli."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise RuntimeError("setup probe did not exit") from None
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError("setup probe failed: " + err.decode(errors="replace")[-500:])
        times.append(elapsed)
    return times


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def group_key(workload, op):
    key, _ = GROUPING[workload]
    x = op["group"][key]
    if key in ("length", "vertices"):
        x = 2 ** int(math.log2(x))  # power-of-two bins
    return (op["group"].get("rank"), x) if workload == "ball" else (None, x)


def scaling(workload, ops, op_times, op_counts):
    """Rows of median op time (and traced counts) per group, plus growth fits."""
    key, model = GROUPING[workload]
    groups: dict = {}
    for i, op in enumerate(ops):
        groups.setdefault(group_key(workload, op), []).append(i)
    rows, series = [], {}
    for (rank, x), members in sorted(groups.items(), key=lambda kv: (kv[0][0] or 0, kv[0][1])):
        row = {key: x, "ops": len(members),
               "median_op_ms": 1000 * statistics.median(op_times[i] for i in members)}
        if workload in ("word-long", "gog"):
            row[key] = statistics.median(ops[i]["group"][key] for i in members)
            row["bin"] = x
        if rank is not None:
            row["rank"] = rank
        if op_counts:
            for name in SCALING_COUNTS:
                total = sum(op_counts[i].get(name, 0) for i in members)
                if total:
                    row[name + ".per_op"] = total / len(members)
        rows.append(row)
        series.setdefault(rank, []).append((row[key], row["median_op_ms"]))
    fits = []
    for rank, points in series.items():
        if len(points) < 2:
            continue
        xs = [math.log(x) if model == "power" else x for x, _ in points]
        ys = [math.log(t) for _, t in points]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = (sum((a - mx) * (b - my) for a, b in zip(xs, ys))
                 / sum((a - mx) ** 2 for a in xs))
        fit = {"model": model, "over": key, "points": len(points)}
        if rank is not None:
            fit["rank"] = rank
        if model == "power":
            fit["exponent"] = slope
        else:
            fit["factor_per_step"] = math.exp(slope)
        fits.append(fit)
    return rows, fits


def per_layer_values(trace, reference_wall):
    values = dict(trace["counts"])
    for name, calls in trace["calls"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = trace["self_s"][name]
    moves, generations = values["whitehead.moves_tried"], values["arcs.axis_generations"]
    values["whitehead.move_yield"] = values["whitehead.descent_steps"] / moves if moves else 0.0
    values["arcs.axis_yield"] = values["arcs.distinct_axes"] / generations if generations else 0.0
    values["trace.tracemalloc_peak_mb"] = trace["tracemalloc_peak_mb"]
    values["trace.overhead_ratio"] = trace["wall_s"] / reference_wall
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GROUPING))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "freesplit" / "cli.py").is_file():
        return fail(f"no freesplit sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH))
    import corpus

    work = Path(".bench_work") / f"{args.workload}-s{args.seed}-t{args.trace}"
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    (ROOT / ".bench_work" / "results").mkdir(exist_ok=True)
    ops, files = corpus.build(args.workload, args.seed, str(work))
    for path, text in files.items():
        (ROOT / path).write_text(text)
    ops_path = ROOT / work / "ops.json"
    ops_path.write_text(json.dumps(ops))
    result_path = ROOT / ".bench_work" / "results" / f"{work.name}.json"
    worker_out = ROOT / work / "worker.json"

    try:
        setup = setup_times()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(ops_path), str(worker_out),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        setup += setup_times()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    if proc.returncode != 0:
        return fail("worker failed:\n" + proc.stderr[-2000:])
    run = json.loads(worker_out.read_text())
    worker_out.unlink()

    # Every op execution counts: a wrong first answer fails in every pass,
    # and a later pass fails where its stdout or exit code changed.
    reasons = [corpus.check(op, outcome) for op, outcome in zip(ops, run["outcomes"])]
    later = run["differing"]
    passes = 1 + len(later)
    attempted = len(ops) * passes
    failures = {}
    for i, reason in enumerate(reasons):
        if reason:
            failures[i] = [reason] * passes
    for diff in later:
        for i in diff:
            failures.setdefault(i, []).append("stdout or exit code differs between runs")
    failed = sum(len(v) for v in failures.values())
    known = {i for i, op in enumerate(ops) if op.get("known_defect")
             and all(r.startswith("wrong answer") for r in failures.get(i, []))}
    correct = set(failures) <= known

    timed = len(run["passes"])
    op_times = [statistics.fmean(p["times"][i] for p in run["passes"]) for i in range(len(ops))]
    end_to_end = {
        "wall_s": sum(op_times),
        "verdict_p50_ms": 1000 * statistics.median(op_times),
        "verdict_p90_ms": 1000 * percentile(op_times, 0.9),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    per_op = f"{len(ops)} ops x {timed} passes"
    sample_counts = {"wall_s": per_op, "verdict_p50_ms": per_op, "verdict_p90_ms": per_op,
                     "peak_rss_mb": "1 process", "setup_s": f"{len(setup)} starts"}
    if args.trace:
        layer = per_layer_values(run["trace"], run["passes"][0]["wall_s"])
        listed = spec["per_layer"]
        op_counts = run["trace"]["op_counts"]
    else:
        layer, listed, op_counts = {}, spec["end_to_end"], None
    rows, fits = scaling(args.workload, ops, op_times, op_counts)
    values = layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    info = machine()
    print(f"freesplit benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"machine: python {info['python']}, nproc {info['nproc']}, cpu {info['cpu']}")
    print(f"ops: {len(ops)} per pass, {passes} passes ({timed} timed), closed loop, 1 client")
    for m in [] if args.trace else spec["end_to_end"]:
        name = m["name"]
        print(f"  {name:<16} {end_to_end[name]:12.4f} {m['unit']:<5} ({sample_counts[name]})")
    print(f"  {'fail_ratio':<16} {failed / attempted:12.4f} ratio ({failed} / {attempted} ops)")
    for i, why in sorted(failures.items()):
        tag = f" [known defect: {ops[i]['known_defect']}]" if i in known else ""
        print(f"FAIL op {i} {' '.join(ops[i]['argv'])}: {why[0]} (x{len(why)}){tag}")
    for row in rows:
        print("scaling " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                    for k, v in row.items()))
    for fit in fits:
        print("growth " + " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in fit.items()))
    if args.trace:
        print(f"trace: {run['trace']['spans']} spans in {run['trace']['spans_file']}")
        for m in listed:
            print(f"  {m['name']:<40} {metrics[m['name']]['value']:.6g} {m['unit']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "ops": len(ops), "passes": passes,
        "end_to_end": end_to_end, "sample_counts": sample_counts,
        "fail_ratio": failed / attempted, "per_layer": layer, "scaling": rows, "growth": fits,
        "failures": {str(i): {"argv": ops[i]["argv"], "reasons": why,
                              "known_defect": ops[i].get("known_defect")}
                     for i, why in failures.items()},
    }
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def deadline(signum, frame):
    raise TimeoutError(f"no result within {DEADLINE_S} s")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)
    try:
        sys.exit(main())
    except TimeoutError as exc:
        sys.exit(fail(str(exc)))
