"""Benchmark of the ptilde2 package: grid throughput, cell latency, set-up
time and memory, and per-layer spans from a separate traced run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  It imports the package from ./src, so it needs
no install.  --seconds defaults to the `run_seconds` of BENCHMARK.json.  With
one workload it runs that workload in this process: whole passes over the
workload's cells, as many as fit in --seconds (at least two), each output
checked against perfbench/golden.json.  It prints every metric by
name and unit, then, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with --trace 0, its `per_layer` metrics with --trace 1.  The
traced run alternates untraced and traced passes, so it can report its own
overhead.  With `all` it runs each workload in its own process, one after
another.  It exits 1 if any cell failed and 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 2
# Set-up samples taken before the passes and again after them, so their
# median spans the run as the pass times do.
SETUP_REPEATS = 6
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import ptilde2, ptilde2.cli\n"
    "for p in sys.argv[1:]:\n"
    "    ptilde2.build_p_tilde_2(int(p))\n"
    "print(time.perf_counter() - start)\n"
)

sys.path.insert(0, str(HERE))
import spans as tr  # noqa: E402
import workloads as wl  # noqa: E402


class SetupError(Exception):
    """The package, the golden file or BENCHMARK.json cannot be loaded."""


@dataclass
class Pass:
    seconds: float
    failed: int
    cell_s: dict  # (p, a, b) -> seconds


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import ptilde2
        import ptilde2.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import ptilde2 from {SRC}: {exc}") from exc
    if Path(ptilde2.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"ptilde2 was imported from {ptilde2.__file__}, not from {SRC}")


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from exc


def setup_seconds(primes) -> list[float]:
    """Import the package and build the algebras in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *map(str, primes)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up failed: {done.stderr.strip()}")
        samples.append(float(done.stdout))
    return samples


def run_passes(workload: wl.Workload, seconds: float, traced: bool, max_passes: int = 0,
               rec: tr.Recorder | None = None):
    """Whole passes until the next one would end after `seconds`, at least
    MIN_PASSES of them (or exactly `max_passes`, when given)."""
    rec = rec if rec is not None else tr.Recorder()
    passes: list[Pass] = []
    start = time.perf_counter()
    with tr.install(rec, traced):
        while True:
            first = len(rec.cell_starts)
            t0 = time.perf_counter()
            failed = 0
            unit_ends = []
            for unit in workload.units:
                try:
                    failed += unit.run()
                except Exception:
                    traceback.print_exc()
                    failed += unit.cells
                unit_ends.append(time.perf_counter())
            t1 = time.perf_counter()
            cells = tr.cell_seconds(rec.cell_starts[first:], unit_ends)
            passes.append(Pass(t1 - t0, min(failed, workload.cells), cells))
            if max_passes:
                if len(passes) == max_passes:
                    break
            elif len(passes) >= MIN_PASSES and (t1 - start) + (t1 - t0) > seconds:
                break
    return passes, rec


def cells_per_s(workload: wl.Workload, passes: list[Pass]) -> float:
    return statistics.median(workload.cells / p.seconds for p in passes)


def tail(cell_ms: list[float]):
    """(percentile, value, cells beyond) at the highest integer percentile
    that leaves at least ten cells beyond it; None if none does."""
    q = int(100 * (1 - 10 / len(cell_ms))) if len(cell_ms) > 10 else 0
    if q < 50:
        return None
    value = statistics.quantiles(cell_ms, n=100)[q - 1]
    return q, value, sum(v > value for v in cell_ms)


def end_to_end(workload, passes, setup) -> tuple[dict, dict]:
    """The metrics reported by value, and the details printed beside them.

    A cell's time is its median over the run's passes, so the cell latencies
    are taken over the workload's distinct cells."""
    by_cell: dict[tuple, list[float]] = {}
    for p in passes:
        for cell, s in p.cell_s.items():
            by_cell.setdefault(cell, []).append(s * 1000)
    cell_ms = [statistics.median(v) for v in by_cell.values()]
    if not cell_ms:
        raise SetupError("no cell was timed: build_kac_module was never called")
    metrics = {
        "setup_s": statistics.median(setup),
        "cells_per_s": cells_per_s(workload, passes),
        "cell_ms_p50": statistics.median(cell_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "passes": len(passes),
        "pass_s": [p.seconds for p in passes],
        "setup_samples_s": setup,
        "cells_timed": len(cell_ms),
        "cell_samples": sum(len(v) for v in by_cell.values()),
        "cell_ms_tail": tail(cell_ms),
        "per_prime_cell_ms": per_prime(passes),
    }
    return metrics, details


def per_prime(passes) -> dict:
    by_p: dict[int, list[float]] = {}
    for p in passes:
        for (prime, _, _), s in p.cell_s.items():
            by_p.setdefault(prime, []).append(s * 1000)
    return {
        str(prime): {"mean": statistics.fmean(v), "worst": max(v), "n": len(v)}
        for prime, v in sorted(by_p.items())
    }


def traced_run(workload, seconds: float) -> tuple[dict, dict, list[Pass], tr.Recorder]:
    """Set-up traced, then untraced and traced passes in turn, starting and
    ending untraced, until `seconds` are used (at least untraced, traced,
    untraced).  The layer metrics come from the set-up and the first traced
    pass; the overhead is the ratio of the medians of the two kinds of pass,
    so a steady drift of the host's speed cancels."""
    rec = tr.Recorder()
    with tr.install(rec, traced=True):
        workload.setup()
    start = time.perf_counter()
    plain, _ = run_passes(workload, 0, traced=False, max_passes=1)
    passes = []
    while not passes or time.perf_counter() - start + 2 * plain[-1].seconds <= seconds:
        more, _ = run_passes(workload, 0, traced=True, max_passes=1,
                             rec=rec if not passes else None)
        passes += more
        plain += run_passes(workload, 0, traced=False, max_passes=1)[0]
    metrics = tr.layer_metrics(rec, workload.cells)
    plain_cps, traced_cps = cells_per_s(workload, plain), cells_per_s(workload, passes)
    metrics["trace.overhead_ratio"] = plain_cps / traced_cps
    details = {
        "untraced_passes": len(plain),
        "traced_passes": len(passes),
        "untraced_cells_per_s": plain_cps,
        "traced_cells_per_s": traced_cps,
        "spans": len(rec.spans),
        "absent": rec.absent,
    }
    return metrics, details, plain + passes, rec


def write_spans(path: Path, rec: tr.Recorder) -> None:
    payload = {
        "fields": ["name", "start", "end", "parent", "cell", "attrs"],
        "spans": rec.spans,
        "absent": rec.absent,
    }
    path.write_text(json.dumps(payload))


def run_one(args, spec: dict) -> int:
    import_package()
    try:
        golden = wl.load_golden()
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {wl.GOLDEN_PATH}: {exc}") from exc
    workload = wl.build(args.workload, args.seed, golden)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        values, details, passes, rec = traced_run(workload, args.seconds)
        write_spans(OUT / f"spans-{stem}.json", rec)
        wanted = spec["per_layer"]
    else:
        setup = setup_seconds(workload.primes)
        workload.setup()
        passes, _ = run_passes(workload, args.seconds, traced=False)
        setup += setup_seconds(workload.primes)
        values, details = end_to_end(workload, passes, setup)
        wanted = spec["end_to_end"]
    attempted = workload.cells * len(passes)
    failed = sum(p.failed for p in passes)
    details.update(failure_ratio=failed / attempted, attempted=attempted, failed=failed)
    if workload.name == "h1-large":
        details["sample"] = wl.sample_large_cells(args.seed)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, value in values.items():
        unit = units.get(name) or ("count" if name.endswith(".calls") else "s")
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  {'failure_ratio':48s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} cells)")
    if not args.trace:
        tail_ms = details["cell_ms_tail"]
        text = "n/a: under 20 cells" if tail_ms is None else (
            f"{tail_ms[1]:14.6g} ms  (p{tail_ms[0]}, {tail_ms[2]} of "
            f"{details['cells_timed']} cells beyond)")
        print(f"  {'cell_ms_tail':48s} {text}")
    for name, value in details.items():
        if name not in ("failure_ratio", "cell_ms_tail"):
            print(f"  {name:48s} {json.dumps(value)}")
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "metrics": values, "details": details}, indent=1)
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd, cwd=ROOT).returncode
        print(f"workload {name}: exit {code}", flush=True)
        status = max(status, code)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload == "all":
            return run_all(args)
        return run_one(args, spec)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
