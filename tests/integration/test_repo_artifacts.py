"""Committed artifacts stay loadable: BENCH reports and the CI workflow.

Every ``BENCH_*.json`` at the repository root is a ``bench-envelope/v1``
report, and the loader refuses anything else.  Every test, benchmark or
example path (or pytest node id) that ``.github/workflows/ci.yml`` names
exists, so deleting or renaming a test cannot silently empty a CI step.
"""

import ast
import json
import pathlib
import re

import pytest

from repro.bench.envelope import SCHEMA, load_bench_report

ROOT = pathlib.Path(__file__).resolve().parents[2]
SUMMARY = "BENCH_SUMMARY.json"


def _reports() -> list[pathlib.Path]:
    return [p for p in sorted(ROOT.glob("BENCH_*.json")) if p.name != SUMMARY]


def test_every_committed_report_is_an_envelope():
    reports = _reports()
    assert reports
    for path in reports:
        doc = load_bench_report(str(path))
        assert doc["schema"] == SCHEMA
        assert isinstance(doc["acceptance"]["pass"], bool), path.name
    summary = json.loads((ROOT / SUMMARY).read_text())
    assert summary["total"] == len(reports)
    assert summary["all_pass"]


@pytest.mark.parametrize("doc", [{"ok": True}, {"schema": "legacy"}, [1, 2]])
def test_a_non_envelope_report_raises_naming_the_file(tmp_path, doc):
    path = tmp_path / "BENCH_old.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="BENCH_old.json"):
        load_bench_report(str(path))


def _defines(path: pathlib.Path, names: list[str]) -> bool:
    """Does the module define the nested class / function chain?"""
    scope = ast.parse(path.read_text()).body
    for name in names:
        found = next(
            (
                node
                for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
            ),
            None,
        )
        if found is None:
            return False
        scope = found.body
    return True


def test_ci_names_only_existing_paths_and_node_ids():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    pattern = re.compile(r"(?<![\w/.])((?:tests|benchmarks|examples)/[\w./-]*(?:::[\w:\[\]-]+)?)")
    named = set(pattern.findall(workflow))
    assert any("::" in ref for ref in named)
    for ref in sorted(named):
        path, *nodes = ref.split("::")
        assert (ROOT / path).exists(), ref
        if nodes:
            assert _defines(ROOT / path, [n.split("[")[0] for n in nodes]), ref
