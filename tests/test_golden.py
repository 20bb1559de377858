"""Golden CLI outputs: exit code, stdout and stderr of every README example.

Each case in ``golden/cases.json`` runs ``freesplit.cli.main`` from a
scratch directory that holds copies of the ``golden/*.gog`` files, so the
file names in the argv and in JSON reports are stable.  A case with an
``output`` key also writes that file; its expected contents are recorded.

The expected values describe intended behaviour; after a deliberate
output change regenerate them with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import json
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from freesplit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES_FILE = GOLDEN / "cases.json"

# (argv, file written by the command or None)
ARGVS = [
    (["graph", "--rank", "2", "abAB"], None),
    (["graph", "--rank", "2", "--format", "json", "abAB"], None),
    (["graph", "--rank", "2", "--format", "dot", "abAB"], None),
    (["minimize", "--rank", "2", "ab", "b"], None),
    (["minimize", "--rank", "2", "--format", "json", "ab", "b"], None),
    (["indecomposable", "--rank", "2", "abAB"], None),
    (["indecomposable", "--rank", "2", "--format", "json", "abAB"], None),
    (["indecomposable", "--rank", "2", "a"], None),
    (["indecomposable", "--rank", "2", "--format", "json", "a"], None),
    (["basis", "--rank", "2", "ab", "b"], None),
    (["basis", "--rank", "2", "--format", "json", "ab", "b"], None),
    (["tree", "ball", "--rank", "2", "--radius", "2"], None),
    (["tree", "ball", "--rank", "2", "--radius", "2", "--format", "json"], None),
    (["tree", "ball", "--rank", "2", "--radius", "2", "--format", "dot"], None),
    (["tree", "axes", "--rank", "2", "--radius", "2", "a"], None),
    (["tree", "axes", "--rank", "2", "--radius", "2", "--format", "json", "a"], None),
    (["tree", "counts", "--rank", "2", "--radius", "3", "abAB"], None),
    (["tree", "counts", "--rank", "2", "--radius", "3", "--format", "json", "abAB"], None),
    (["tree", "certificate", "--rank", "2", "--radius", "3", "abAB"], None),
    (["tree", "certificate", "--rank", "2", "--radius", "3", "--format", "json", "abAB"], None),
    (["tree", "certificate", "--rank", "2", "--radius", "3", "a"], None),
    (["tree", "profile", "--rank", "2", "--max-radius", "4", "abAB"], None),
    (["tree", "profile", "--rank", "2", "--max-radius", "4", "--format", "json", "abAB"], None),
    (["tree", "star", "--rank", "2", "--radius", "2", "abAB"], None),
    (["tree", "star", "--rank", "2", "--radius", "2", "--format", "json", "abAB"], None),
    (["tree", "star", "--rank", "2", "--radius", "2", "--format", "dot", "abAB"], None),
    (["double", "--rank", "2", "abAB"], None),
    (["double", "--rank", "2", "--format", "json", "abAB"], None),
    (["double", "--rank", "2", "-o", "out.gog", "a", "b"], "out.gog"),
    (["one-ended", "double.gog"], None),
    (["one-ended", "--format", "json", "double.gog"], None),
    (["one-ended", "split.gog"], None),
    (["one-ended", "--format", "json", "split.gog"], None),
    (["one-ended", "hnn.gog"], None),
    (["present", "double.gog"], None),
    (["present", "--format", "json", "double.gog"], None),
    (["present", "hnn.gog"], None),
    (["present", "--format", "json", "hnn.gog"], None),
    # auto-reduce warning on stderr, then the verdict on stdout
    (["indecomposable", "--rank", "2", "baB"], None),
    # the ball budget refusal: exit 2, message on stderr, nothing on stdout
    (["tree", "ball", "--rank", "2", "--radius", "20"], None),
    # default radii: ball reports its radius 2, the analyses leave theirs out
    (["tree", "ball", "--rank", "2", "--format", "json"], None),
    (["tree", "axes", "--rank", "2", "--format", "json", "a"], None),
    (["tree", "profile", "--rank", "2", "--format", "json", "abAB"], None),
    # -o prints the same line in any format
    (["double", "--rank", "2", "-o", "out.gog", "--format", "json", "abAB"], "out.gog"),
    (["one-ended", "--format", "json", "lone.gog"], None),
    # tree relations come in sweep order, not edge id order
    (["present", "sweep.gog"], None),
    (["one-ended", "missing.gog"], None),
    # ranks past the reach of an exhaustive move scan; the minimize takes several steps
    (["indecomposable", "--rank", "6", "--format", "json", "ab"], None),
    (["minimize", "--rank", "5", "--format", "json", "abcAC", "bbcd"], None),
    # a proper power beside its root, and a word beside its inverse, whose
    # lines the inverse shares
    (["tree", "axes", "--rank", "2", "--radius", "4", "--format", "json", "abab", "ab", "BA"],
     None),
    (["tree", "counts", "--rank", "1", "--radius", "3", "aa", "a"], None),
    # the ball route on vertex ids: counts at rank 3, numeric labels past
    # the 26 letters, a decomposable profile, a failing certificate
    (["tree", "counts", "--rank", "3", "--radius", "2", "abcABC"], None),
    (["tree", "counts", "--rank", "27", "--radius", "1", "27"], None),
    (["tree", "axes", "--rank", "27", "--radius", "1", "--format", "json", "27"], None),
    (["tree", "profile", "--rank", "2", "--max-radius", "3", "a", "b"], None),
    (["tree", "certificate", "--rank", "2", "--radius", "3", "--format", "json", "a"], None),
    # free vertices: 2-connected input graphs, a rank-1 power, one that needs
    # a descent, and a lowest failing vertex whose family skips a generator
    (["one-ended", "lemma.gog"], None),
    (["one-ended", "--format", "json", "lemma.gog"], None),
    (["present", "lemma.gog"], None),
]


def run_case(argv, output, workdir: Path) -> dict:
    for fixture in GOLDEN.glob("*.gog"):
        shutil.copy(fixture, workdir / fixture.name)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    result = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if output is not None:
        result["output"] = output
        result["written"] = (workdir / output).read_text()
    return result


def load_cases() -> list[dict]:
    # A missing file fails test_cases_cover_every_argv rather than collection.
    return json.loads(CASES_FILE.read_text()) if CASES_FILE.exists() else []


@pytest.mark.parametrize("case", load_cases(), ids=lambda c: " ".join(c["argv"]))
def test_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(case["argv"], case.get("output"), tmp_path) == case


def test_cases_cover_every_argv():
    assert [c["argv"] for c in load_cases()] == [argv for argv, _ in ARGVS]


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        cases = [run_case(argv, output, Path(tmp)) for argv, output in ARGVS]
    CASES_FILE.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CASES_FILE}", file=sys.stderr)
