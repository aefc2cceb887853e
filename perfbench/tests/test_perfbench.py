"""Self-tests of the benchmark: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from click.testing import CliRunner  # noqa: E402

import ptilde2.cli as cli  # noqa: E402
import ptilde2.linalg as linalg  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return wl.load_golden()


def test_self_time_of_nested_span_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child [6, 7].
    tree = [
        ["root", 0.0, 10.0, -1, None, {}],
        ["a", 1.0, 4.0, 0, None, {}],
        ["b", 5.0, 9.0, 0, None, {}],
        ["c", 6.0, 7.0, 2, None, {}],
    ]
    assert spans.self_seconds(tree) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    tree = [
        ["root", 0.0, 10.0, -1, None, {}],
        ["a", 1.0, 6.0, 0, None, {}],
        ["b", 4.0, 12.0, 0, None, {}],
    ]
    assert spans.self_seconds(tree)[0] == 1.0


def test_cell_seconds_sums_cells_across_units():
    starts = [((3, 0, 0), 0.0), ((3, 0, 1), 1.0), ((3, 0, 0), 5.0), ((3, 0, 1), 7.0)]
    cells = spans.cell_seconds(starts, unit_ends=[3.0, 4.0, 8.0])
    assert cells == {(3, 0, 0): 3.0, (3, 0, 1): 3.0}


def test_golden_check_rejects_one_tampered_row(golden):
    out = wl.scan_output(CliRunner(), cli.main, 5).stdout
    assert wl.scan_csv_failures(out, golden["scan"]["5"]) == 0
    lines = out.splitlines(keepends=True)
    lines[7] = lines[7].replace("true", "false")
    assert wl.scan_csv_failures("".join(lines), golden["scan"]["5"]) == 1


def test_traced_and_untraced_runs_give_identical_rows(golden):
    runner = CliRunner()
    plain = wl.scan_output(runner, cli.main, 5).stdout
    original = cli.scan_rows
    rec = spans.Recorder()
    with spans.install(rec, traced=True):
        traced = wl.scan_output(runner, cli.main, 5).stdout
    assert cli.scan_rows is original
    assert traced == plain
    assert wl.sha256(traced) == golden["scan"]["5"]["sha256"]
    names = {s[0] for s in rec.spans}
    assert {"cli.scan_rows", "cohomology.h1", "linalg.nullspace"} <= names
    assert len({s[4] for s in rec.spans if s[0] == "cohomology.h1"}) == 25


def test_nullspace_counts_repeat_exactly():
    def counts():
        rec = spans.Recorder()
        with spans.install(rec, traced=True):
            cli.suite_lemmas(3)
        m = spans.layer_metrics(rec, cells=9)
        keys = ("linalg.nullspace.calls", "linalg.nullspace.input_mb",
                "linalg.nullspace.rank_ratio", "cohomology.derivation_space.calls_per_cell")
        return {k: m[k] for k in keys}

    first = counts()
    assert first == counts()
    assert 0 < first["linalg.nullspace.rank_ratio"] < 1
    assert first["cohomology.derivation_space.calls_per_cell"] == 4


def test_missing_target_is_recorded_as_absent(monkeypatch):
    monkeypatch.setattr(
        spans, "TARGETS", spans.TARGETS + (("linalg", "Subspace.no_such_method", "linalg.gone"),)
    )
    rec = spans.Recorder()
    with spans.install(rec, traced=True):
        linalg.Subspace.zero(3, 2) + linalg.Subspace.full(3, 2)
    assert rec.absent == ["linalg.gone"]
    metrics = spans.layer_metrics(rec, cells=1)
    assert metrics["linalg.gone.calls"] == 0
    assert metrics["linalg.subspace_add.calls"] == 1


def test_sampler_is_deterministic_and_stratified():
    first = wl.sample_large_cells(1)
    assert first == wl.sample_large_cells(1)
    assert first != wl.sample_large_cells(2)
    tops = [(b - a) % wl.LARGE_P for a, b in first]
    assert tops == list(wl.LARGE_TOPS)
    assert all(2 * (t + 1) >= 32 for t in tops)


def test_golden_covers_every_sampleable_cell(golden):
    expected = {f"{a},{(a + t) % wl.LARGE_P}" for t in wl.LARGE_TOPS for a in range(wl.LARGE_P)}
    assert set(golden["h1"]) == expected


def test_run_reports_the_metrics_benchmark_json_lists():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rec = spans.Recorder()
    metrics = spans.layer_metrics(rec, cells=1)
    metrics["trace.overhead_ratio"] = 1.0
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
