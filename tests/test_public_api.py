"""The documented library API and the names the benchmark traces still exist.

The README ``## Library`` block is run statement by statement, and each
statement with a trailing ``# <value>`` comment must evaluate to that value.
Every record value refuses attribute assignment, as README says, while a
graph of groups stays editable, and every function that takes a family
refuses a member that is not a ``CyclicWord``.
``bench/worker.py`` wraps the functions named in its ``TARGETS`` list; the
list is read with ``ast`` (the worker is not imported) and every name must
resolve in freesplit.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from freesplit import (
    Alphabet, CyclicVertex, CyclicWord, EdgeSpec, FreeGroupMap, FreeVertex, OpaqueVertex,
    analyze_subtree, build_ball, build_whitehead_graph, class_count_profile,
    decide_indecomposable, double, enumerate_axes, family_from_texts, lemma33_certificate,
    minimize, one_ended, parse_gog, recognize_basis,
)
from freesplit.errors import InvalidInputError
from freesplit.words import _Record

ROOT = Path(__file__).resolve().parent.parent


def library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    assert match, "README has no python block under ## Library"
    return match.group(1)


def test_readme_library_block_runs_as_documented():
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        comment = lines[statement.end_lineno - 1][statement.end_col_offset:].strip()
        if comment.startswith("#") and isinstance(statement, ast.Expr):
            expected = ast.literal_eval(comment[1:].strip())
            assert eval(code, namespace) == expected, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 4


def test_benchmark_targets_resolve():
    tree = ast.parse((ROOT / "bench" / "worker.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets
    for module_name, attribute, _ in targets:
        owner = importlib.import_module(f"freesplit.{module_name}")
        for part in attribute.split("."):
            assert hasattr(owner, part), f"freesplit.{module_name}.{attribute}"
            owner = getattr(owner, part)
        assert callable(owner), f"freesplit.{module_name}.{attribute}"


def record_samples() -> dict:
    """One value of every record class, by class name, built through the library."""
    alphabet = Alphabet(2)
    family = family_from_texts(alphabet, ["abAB"])
    _, trace = minimize(alphabet, family_from_texts(alphabet, ["aab"]))
    ball = build_ball(alphabet, 3)
    axes = enumerate_axes(family, ball)
    analysis = analyze_subtree(ball, [(), (1,)], axes)
    graph = double(alphabet, family)
    shared = parse_gog("vertex u free 2\nvertex v free 2\nedge e u v ab ab\n")
    assert shared.vertices["u"] is shared.vertices["v"]
    return {
        "Alphabet": alphabet,
        "CyclicWord": family[0],
        "FreeGroupMap": FreeGroupMap.identity(2),
        "MultiplierAutomorphism": trace.steps[0].automorphism,
        "TraceStep": trace.steps[0],
        "MinimizationTrace": trace,
        "IndecomposabilityVerdict": decide_indecomposable(alphabet, family),
        "StarCertificate": lemma33_certificate(ball, axes),
        "Interval": analysis.intervals[0],
        "SubtreeAnalysis": analysis,
        "FreeVertex": FreeVertex(2),
        "CyclicVertex": CyclicVertex(),
        "OpaqueVertex": OpaqueVertex("x"),
        "EdgeSpec": graph.edges[0],
        "OneEndednessVerdict": one_ended(graph),
        "shared FreeVertex": shared.vertices["u"],
        "GraphOfGroups": graph,
    }


RECORD_CLASSES = sorted(cls.__name__ for cls in _Record.__subclasses__())


@pytest.mark.parametrize("name", [*RECORD_CLASSES, "shared FreeVertex", "GraphOfGroups"])
def test_records_refuse_assignment_and_graphs_stay_editable(name):
    value = record_samples()[name]
    assert type(value).__name__ == name.removeprefix("shared ")
    if name == "GraphOfGroups":
        value.vertices["w"] = CyclicVertex()
        value.edges.append(EdgeSpec("e9", ("v1", "w"), (value.edges[0].attachments[0], 1)))
        value.edges = value.edges[1:]
        assert "w" in value.vertices and value.edges[-1].id == "e9"
        return
    before = {field: getattr(value, field) for field in type(value).__slots__}
    for field in [*before, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert {field: getattr(value, field) for field in before} == before


# Every public function that takes a family, called on one at rank 2.
FAMILY_CALLS = {
    "build_whitehead_graph": lambda family: build_whitehead_graph(Alphabet(2), family),
    "minimize": lambda family: minimize(Alphabet(2), family),
    "recognize_basis": lambda family: recognize_basis(Alphabet(2), family),
    "decide_indecomposable": lambda family: decide_indecomposable(Alphabet(2), family),
    "enumerate_axes": lambda family: enumerate_axes(family, build_ball(Alphabet(2), 2)),
    "class_count_profile": lambda family: class_count_profile(Alphabet(2), family, 2),
    "double": lambda family: double(Alphabet(2), family),
}


@pytest.mark.parametrize("member", [(1, 2), "ab", None], ids=["tuple", "str", "None"])
@pytest.mark.parametrize("name", sorted(FAMILY_CALLS))
def test_family_member_that_is_not_a_cyclic_word_is_refused(name, member):
    # as long as the rank, and longer: recognize_basis reads both before their length
    for family in ((CyclicWord((1, 2)), member), (CyclicWord((1, 2)), member, CyclicWord((2,)))):
        with pytest.raises(InvalidInputError, match="must be CyclicWord"):
            FAMILY_CALLS[name](family)
        with pytest.raises(InvalidInputError, match="must be CyclicWord"):
            FAMILY_CALLS[name](iter(family[::-1]))
