import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from ptilde2 import cli, cohomology
from ptilde2.cli import CSV_HEADER, main, scan_rows, scan_summary
from ptilde2.linalg import Subspace
from ptilde2.superalgebra import build_p_tilde_2
from ptilde2.modules import build_kac_module, gmodule_from_json
from ptilde2.superalgebra import superalgebra_from_json


@pytest.fixture
def runner():
    return CliRunner()


class TestH1Command:
    def test_text_output(self, runner):
        result = runner.invoke(main, ["h1", "--p", "5", "--a", "0", "--b", "3"])
        assert result.exit_code == 0
        assert "h1_total = 2" in result.output
        assert "agrees = true" in result.output

    def test_json_output(self, runner):
        result = runner.invoke(main, ["h1", "--p", "5", "--a", "1", "--b", "1", "--format", "json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["dims"]["h1_total"] == 0
        assert data["agrees"] is True
        assert data["lambda"] == [1, 1]

    def test_invocations_keep_no_output_stream_alive(self, runner):
        # click.echo without file= caches a wrapper of each stream it writes
        # to, which holds that stream alive: one per CliRunner invocation
        def live_streams():
            gc.collect()
            return sum(type(o).__name__ == "_NamedTextIOWrapper" for o in gc.get_objects())

        args = ["h1", "--p", "5", "--a", "0", "--b", "3", "--format", "json"]
        before = live_streams()
        for _ in range(30):
            assert runner.invoke(main, args).exit_code == 0
        assert live_streams() - before <= 2

    def test_composite_modulus_is_usage_error(self, runner):
        result = runner.invoke(main, ["h1", "--p", "4", "--a", "0", "--b", "0"])
        assert result.exit_code == 2

    def test_modulus_past_the_bound_is_usage_error(self, runner):
        result = runner.invoke(main, ["h1", "--p", "65537", "--a", "0", "--b", "0"])
        assert result.exit_code == 2
        assert "p < 65536" in result.output

    def test_even_regime_report(self, runner):
        result = runner.invoke(main, ["h1", "--p", "5", "--a", "2", "--b", "4", "--format", "json"])
        data = json.loads(result.output)
        assert data["dims"]["h1_total"] == 1
        assert data["dims"]["h1_even"] == 1
        assert len(data["representatives"]) == 1
        assert data["representatives"][0]["parity"] == 0


class TestScanCommand:
    def test_csv_shape_and_header(self, runner):
        result = runner.invoke(main, ["scan", "--p", "3", "--out", "csv"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l and not l.startswith("#")]
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 9

    def test_json_matches_csv(self, runner):
        res_csv = runner.invoke(main, ["scan", "--p", "5", "--out", "csv"])
        res_json = runner.invoke(main, ["scan", "--p", "5", "--out", "json"])
        assert res_csv.exit_code == 0 and res_json.exit_code == 0
        body = [l for l in res_csv.output.splitlines() if l and not l.startswith("#")]
        csv_rows = list(csv.DictReader(io.StringIO("\n".join(body))))
        json_rows = json.loads(res_json.output)["rows"]
        assert len(csv_rows) == len(json_rows) == 25
        names = {
            "a": "a",
            "b": "b",
            "phi_b_minus_a": "phi_b_minus_a",
            "dim_K": "dim_K",
            "der_even": "dim_der_even",
            "der_odd": "dim_der_odd",
            "ider": "dim_ider",
            "h1": "h1_total",
            "predicted": "predicted",
            "agrees": "agrees",
        }
        for c_row, j_row in zip(csv_rows, json_rows):
            for c_name, j_name in names.items():
                j_val = j_row[j_name]
                c_val = c_row[c_name]
                if isinstance(j_val, bool):
                    assert c_val == str(j_val).lower()
                else:
                    assert int(c_val) == j_val

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, runner, jobs):
        result = runner.invoke(main, ["scan", "--p", "3", "--jobs", jobs])
        assert result.exit_code == 2
        assert "--jobs" in result.output

    def test_parallel_output_is_byte_identical(self, runner):
        serial = runner.invoke(main, ["scan", "--p", "3", "--out", "csv", "--jobs", "1"])
        parallel = runner.invoke(main, ["scan", "--p", "3", "--out", "csv", "--jobs", "2"])
        assert serial.output == parallel.output

    def test_worker_pool_output_is_byte_identical(self, runner):
        # p=7 makes several batches, so --jobs 2 maps them over a real pool
        assert len(cli._grid_batches(7)) > 1
        serial = runner.invoke(main, ["scan", "--p", "7", "--out", "csv", "--jobs", "1"])
        parallel = runner.invoke(main, ["scan", "--p", "7", "--out", "csv", "--jobs", "2"])
        assert serial.exit_code == parallel.exit_code == 0
        assert (serial.stdout, serial.stderr) == (parallel.stdout, parallel.stderr)

    def test_first_failing_cell_wins_for_any_worker_count(self, runner, monkeypatch):
        # Ider escapes Der at two cells of different batches, in different parities,
        # so the two cells' failure lines differ; forked workers inherit the patch
        inner = cohomology.inner_space
        escaped = {(1, 2): 1, (3, 4): 0}

        def planted(g, m):
            spans = list(inner(g, m))
            if m.highest_weight in escaped:
                s = escaped[m.highest_weight]
                spans[s] = Subspace.full(g.p, spans[s].ambient_dim)
            return tuple(spans)

        monkeypatch.setattr(cohomology, "inner_space", planted)
        batch_of = {cell: k for k, batch in enumerate(cli._grid_batches(5)) for cell in batch}
        assert batch_of[1, 2] != batch_of[3, 4]
        serial = runner.invoke(main, ["scan", "--p", "5", "--jobs", "1"])
        parallel = runner.invoke(main, ["scan", "--p", "5", "--jobs", "2"])
        assert serial.exit_code == parallel.exit_code == 1
        assert serial.stderr == parallel.stderr == (
            "internal solver failure: inner derivations escaped the derivation space (parity 1)\n"
        )

    def test_double_dimension_rows_at_p5(self, runner):
        rows = scan_rows(5)
        double = [(r.a, r.b) for r in rows if r.h1_total == 2]
        assert double == [(0, 3)]
        assert all(r.agrees for r in rows)
        assert sum(r.dim_K for r in rows) == 25 * 6  # p^2 (p+1)

    def test_summary_counts(self):
        rows = scan_rows(3)
        summary = scan_summary(3, rows)
        assert summary["disagreements"] == []
        assert summary["clause_overlaps"] == []
        assert sum(int(v) for v in summary["h1_counts"].values()) == 9


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # only a scan with more than one worker needs the pool
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "import sys, ptilde2.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


class TestWorkerCount:
    @pytest.mark.parametrize(
        "jobs,cells,cpus,expected",
        [(8, 9, 4, 4), (8, 3, 4, 3), (2, 9, 4, 2), (1, 9, 4, 1), (4, 9, None, 1)],
    )
    def test_clamped_to_cells_and_cpus(self, monkeypatch, jobs, cells, cpus, expected):
        from ptilde2 import cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._worker_count(jobs, cells) == expected


class TestSolverFailureExit:
    @pytest.fixture
    def broken_containment(self, monkeypatch):
        # an odd Ider that is every coordinate cannot lie in Der
        from ptilde2 import cohomology
        from ptilde2.linalg import Subspace

        inner = cohomology.inner_space
        monkeypatch.setattr(
            cohomology,
            "inner_space",
            lambda g, m: (inner(g, m)[0], Subspace.full(g.p, m.dim * g.dim)),
        )

    def test_h1_exits_one_with_one_line(self, runner, broken_containment):
        result = runner.invoke(main, ["h1", "--p", "3", "--a", "0", "--b", "1"])
        assert result.exit_code == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("internal solver failure: ")
        assert "escaped the derivation space" in lines[0]

    def test_scan_exits_one(self, runner, broken_containment):
        result = runner.invoke(main, ["scan", "--p", "3"])
        assert result.exit_code == 1
        assert result.stderr.startswith("internal solver failure: ")

    def test_check_reports_a_finding(self, runner, broken_containment):
        result = runner.invoke(main, ["check", "--p", "3", "--suite", "lemmas"])
        assert result.exit_code == 1
        assert "solver failure at (0,0)" in result.output


class TestCheckCommand:
    @pytest.mark.parametrize("suite", ["algebra", "module", "weights", "lemmas"])
    def test_each_suite_passes(self, runner, suite):
        result = runner.invoke(main, ["check", "--p", "5", "--suite", suite])
        assert result.exit_code == 0, result.output
        assert f"suite {suite}: PASS" in result.output

    def test_all_suites_smallest_prime(self, runner):
        result = runner.invoke(main, ["check", "--p", "3", "--suite", "all"])
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_all_is_the_single_suites_in_turn(self, runner, p):
        single = [
            runner.invoke(main, ["check", "--p", str(p), "--suite", suite])
            for suite in ["algebra", "module", "weights", "lemmas"]
        ]
        every = runner.invoke(main, ["check", "--p", str(p), "--suite", "all"])
        assert every.stdout == "".join(result.stdout for result in single)
        assert every.exit_code == max(result.exit_code for result in single)

    def test_one_kac_build_per_cell(self, runner, monkeypatch):
        # the module, weights and lemma suites share one walk under --suite all
        built = []
        real = cli.build_kac_module

        def counted(g, a, b):
            built.append((a, b))
            return real(g, a, b)

        monkeypatch.setattr(cli, "build_kac_module", counted)
        result = runner.invoke(main, ["check", "--p", "5"])
        assert result.exit_code == 0, result.output
        assert sorted(built) == [(a, b) for a in range(5) for b in range(5)]

    def test_failures_set_exit_code(self, runner, monkeypatch):
        from ptilde2 import cli

        monkeypatch.setitem(cli._SUITES, "algebra", lambda p: ["planted failure"])
        result = runner.invoke(main, ["check", "--p", "3", "--suite", "algebra"])
        assert result.exit_code == 1
        assert "FAIL" in result.output


class TestExportCommand:
    def test_algebra_shape(self, runner):
        result = runner.invoke(main, ["export", "--p", "5", "--what", "algebra"])
        data = json.loads(result.output)
        assert len(data["labels"]) == 8
        assert len(data["structure"]) == 8
        assert all(len(plane) == 8 and all(len(r) == 8 for r in plane) for plane in data["structure"])

    def test_module_shape(self, runner):
        result = runner.invoke(
            main, ["export", "--p", "5", "--a", "0", "--b", "3", "--what", "module"]
        )
        data = json.loads(result.output)
        assert len(data["actions"]) == 8
        assert all(len(m) == 8 for m in data["actions"])

    def test_round_trips(self, runner):
        g = build_p_tilde_2(5)
        out = runner.invoke(main, ["export", "--p", "5", "--what", "algebra"])
        back = superalgebra_from_json(json.loads(out.output))
        assert back.labels == g.labels

        out = runner.invoke(main, ["export", "--p", "5", "--a", "0", "--b", "3", "--what", "module"])
        km = build_kac_module(g, 0, 3)
        back = gmodule_from_json(json.loads(out.output), g)
        assert back.labels == km.labels
        import numpy as np

        assert all(np.array_equal(x, y) for x, y in zip(back.actions, km.actions))

    def test_bad_modulus_rejected(self, runner):
        result = runner.invoke(main, ["export", "--p", "9", "--what", "algebra"])
        assert result.exit_code == 2
