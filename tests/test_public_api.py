"""The documented library API and the names the benchmark traces still exist.

The README ``## Library`` block is run statement by statement, and each
statement with a trailing ``# <value>`` comment must evaluate to that value.
``bench/worker.py`` wraps the functions named in its ``TARGETS`` list; the
list is read with ``ast`` (the worker is not imported) and every name must
resolve in freesplit.
"""

import ast
import importlib
import re
from pathlib import Path

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
