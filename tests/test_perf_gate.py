"""The perf gate's table (``benchmarks/check_regression.py``).

Every row must resolve in the committed ``benchmarks/out/BENCH_*.json``
and pass there; a copy with one row's value pushed past its bound must
fail that row and only that row; a missing file or metric is exit 2.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"

_spec = importlib.util.spec_from_file_location(
    "check_regression", BENCH / "check_regression.py"
)
gate = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = gate  # dataclasses resolve annotations through it
_spec.loader.exec_module(gate)

ROW_IDS = [f"{row.file}:{row.metric}" for row in gate.ROWS]


def _walk(doc, metric):
    *parents, leaf = metric.split(".")
    for key in parents:
        doc = doc[key]
    return doc, leaf


def _past(row):
    """A value that misses ``row``'s bound."""
    bound = row.bound
    if row.baseline is not None:
        doc, leaf = _walk(
            json.loads((gate.BASELINE_DIR / row.baseline).read_text()), row.metric
        )
        bound = row.bound * doc[leaf]
    if isinstance(bound, bool):
        return not bound
    return {">=": bound * 0.99, ">": bound, "<=": bound * 1.01 + 0.01,
            "<": bound, "==": bound + 1}[row.op]


@pytest.fixture
def out_copy(tmp_path):
    for path in gate.OUT_DIR.glob("BENCH_*.json"):
        shutil.copy(path, tmp_path / path.name)
    return tmp_path


def _edit(out_dir, file, metric, value):
    path = out_dir / file
    doc = json.loads(path.read_text())
    parent, leaf = _walk(doc, metric)
    if value is None:
        del parent[leaf]
    else:
        parent[leaf] = value
    path.write_text(json.dumps(doc))


def _statuses(capsys):
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(gate.ROWS)
    return [line.split()[0] for line in lines]


def test_every_row_has_one_known_comparison():
    assert len(set(ROW_IDS)) == len(ROW_IDS)
    assert all(row.op in gate.OPS for row in gate.ROWS)


@pytest.mark.parametrize("row", gate.ROWS, ids=ROW_IDS)
def test_row_passes_on_committed_files(row):
    status, line = gate.check(row)
    assert status == "ok", line


def test_committed_files_pass_the_gate(capsys):
    assert gate.main() == 0
    assert set(_statuses(capsys)) == {"ok"}


@pytest.mark.parametrize("index", range(len(gate.ROWS)), ids=ROW_IDS)
def test_value_past_its_bound_fails_that_row(index, out_copy, capsys):
    row = gate.ROWS[index]
    _edit(out_copy, row.file, row.metric, _past(row))
    assert gate.main(out_copy) == 1
    statuses = _statuses(capsys)
    assert statuses[index] == "FAIL"
    assert statuses[:index] + statuses[index + 1:] == ["ok"] * (len(gate.ROWS) - 1)
    with pytest.raises(AssertionError, match="bar missed"):
        gate.assert_section(row.file, row.section, out_copy)


def test_single_core_host_exempts_the_sweep_speedup(out_copy, capsys):
    (row,) = [r for r in gate.ROWS if r.only_if is not None]
    _edit(out_copy, row.file, row.only_if[0], 1)
    _edit(out_copy, row.file, row.metric, _past(row))
    assert gate.main(out_copy) == 0
    assert _statuses(capsys)[gate.ROWS.index(row)] == "skip"


def test_missing_file_or_metric_exits_2(out_copy, capsys):
    (out_copy / "BENCH_sweep.json").unlink()
    _edit(out_copy, "BENCH_engine.json", "noop_tracer_overhead.overhead_pct", None)
    assert gate.main(out_copy) == 2
    statuses = _statuses(capsys)
    missing = [r for r, s in zip(gate.ROWS, statuses) if s == "MISSING"]
    assert {r.file for r in missing} == {"BENCH_sweep.json", "BENCH_engine.json"}
    assert [r.metric for r in missing if r.file == "BENCH_engine.json"] == [
        "noop_tracer_overhead.overhead_pct"
    ]
