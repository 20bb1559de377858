"""A command runs only the modules it needs, and the package API stays whole.

``whitehead``, ``tree``, ``arcs`` and ``gog`` sit in ``sys.modules`` as lazy modules
until one of their attributes is read, so a module has run exactly when
its ``sys.modules`` entry is a plain module.  Each probe is a fresh
interpreter (``-S`` keeps site-packages, which may import ``json``, out).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freesplit

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = ("freesplit.whitehead", "freesplit.tree", "freesplit.arcs", "freesplit.gog", "json")

# Runs the CLI on argv, if any, then prints which watched modules have run.
PROBE = f"""
import sys, types
import freesplit.cli
if sys.argv[1:]:
    freesplit.cli.main(sys.argv[1:])
print(sorted(n for n in {WATCHED!r} if type(sys.modules.get(n)) is types.ModuleType))
"""

GOG = "vertex v free 2\nvertex c cyclic\nedge e v c abAB 2\n"

# The names ``from freesplit import *`` bound before any module loaded lazily.
STAR_NAMES = [
    "Alphabet", "Axis", "CyclicVertex", "CyclicWord", "DECOMPOSABLE", "DEFAULT_VERTEX_CAP",
    "EdgeSpec", "FreeGroupMap", "FreeVertex", "FreesplitError", "GraphOfGroups",
    "INDECOMPOSABLE", "IndecomposabilityVerdict", "InternalConsistencyError", "Interval",
    "InvalidInputError", "MinimizationTrace", "Multigraph", "MultiplierAutomorphism",
    "NOT_ONE_ENDED", "ONE_ENDED", "OneEndednessVerdict", "OpaqueVertex", "ParseError",
    "ResourceCapError", "StarCertificate", "SubtreeAnalysis", "TreeBall",
    "UnsupportedExportError", "analyze_subtree", "arcs", "build_ball", "build_whitehead_graph",
    "class_count_profile", "conjugacy_class_rep", "cyclic_reduce", "decide_indecomposable",
    "double", "edge_arc_count", "edge_counts", "enumerate_axes", "errors",
    "family_from_texts", "format_word", "free_reduce", "gog", "graphs", "lemma33_certificate",
    "minimize", "one_ended", "parse_gog", "parse_word", "predicted_vertex_count",
    "presentation", "recognize_basis", "serialize_gog", "star_graph", "total_cyclic_length",
    "tree", "trivial_vertices", "validate", "whitehead", "whitehead_moves", "words",
]


def modules_run(*argv):
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, expected", [
    ((), []),
    (("indecomposable", "--rank", "2", "abAB"), ["freesplit.whitehead"]),
    (("tree", "certificate", "--rank", "2", "--radius", "3", "abAB"),
     ["freesplit.tree", "freesplit.arcs"]),
    (("one-ended", "GOG"), ["freesplit.whitehead", "freesplit.gog"]),
    (("indecomposable", "--rank", "2", "--format", "json", "abAB"),
     ["freesplit.whitehead", "json"]),
])
def test_command_runs_only_its_modules(tmp_path, argv, expected):
    if argv[-1:] == ("GOG",):
        path = tmp_path / "input.gog"
        path.write_text(GOG)
        argv = argv[:-1] + (str(path),)
    assert modules_run(*argv) == sorted(expected)


def test_star_import_binds_the_same_names():
    namespace = {}
    exec("from freesplit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == STAR_NAMES
    assert namespace["one_ended"] is freesplit.gog.one_ended


def test_every_name_is_listed_and_unknown_names_fail():
    assert set(STAR_NAMES) <= set(dir(freesplit))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        freesplit.no_such_name


# Four threads read two modules that have not run yet, at once.
RACE = """
import sys, threading
sys.setswitchinterval(1e-6)
from freesplit import arcs, gog
errors = []
barrier = threading.Barrier(4)
def use():
    barrier.wait()
    try:
        gog.one_ended, arcs.enumerate_axes
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=use) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(20)
print(sum(thread.is_alive() for thread in threads), errors)
"""


@pytest.mark.parametrize("run", range(3))
def test_threads_wait_for_a_module_that_is_running(run):
    done = subprocess.run([sys.executable, "-S", "-c", RACE], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
