"""The benchmark tracer (perfbench/spans.py) wraps sqpo functions by module
and attribute name and `Hierarchy` methods by name. A refactor that renames
or removes one of them breaks the tracer; this test makes that a test
failure. The tracer module is loaded from its file and left unchanged."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def test_traced_functions_resolve(spans):
    missing = [
        f"{mod}.{attr}"
        for mod, attr, *_ in spans.FUNCTIONS
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


def test_traced_hierarchy_methods_resolve(spans):
    from sqpo.hierarchy import Hierarchy

    names = [method for method, *_ in spans.METHODS + spans.COUNTED_METHODS]
    assert [n for n in names if not callable(vars(Hierarchy).get(n))] == []


def test_tracer_builds_its_patches(spans):
    """Building the patch table looks every name up and wraps it, without
    installing anything."""
    tracer = spans.Tracer(max_spans=1)
    wrapped = {attr for owner, attr, _, _ in tracer._patches}
    assert {"restriction_pullback", "lift_rule", "check_composability"} <= wrapped


def test_tracer_times_a_rewrites_loads_and_report(spans, tmp_path):
    """An in-process `sqpo rewrite` under the tracer records its file loads
    as `cli.load` and its report writer as one `cli.write` span."""
    import sqpo.cli

    args = [
        "rewrite", str(FIXTURES / "merge_add.hierarchy.json"), "G",
        str(FIXTURES / "merge_add.rule.json"), "0", "--direction", "fwd",
        "--relation", str(FIXTURES / "merge_add.relation.json"),
        "-o", str(tmp_path / "out.json"), "--report", str(tmp_path / "report.json"),
    ]
    tracer = spans.Tracer(max_spans=1)
    code, totals = tracer.run("rewrite", sqpo.cli.main, args)
    assert code == 0
    assert totals.calls["cli.write"] == 1
    assert totals.calls["cli.load"] >= 2
