"""Run one workload of the benchmark over several seeds and summarise it.

    python3 perfbench/repeat.py --workload NAME [--seeds 1-10] [--trace 0|1] [--out FILE]

Run from the repository root.  Each seed is one `perfbench/run.py` process,
run one after another with the `run_seconds` of BENCHMARK.json.  For every
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, beside the metric's bound.  A run that fails
stops the summary with exit code 1.  --out writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
            return 1
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {
        name: summarise([r["metrics"][name]["value"] for r in runs])
        for name in runs[0]["metrics"]
    }
    for name, s in summary.items():
        bound = bounds.get(name)
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:48s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {spread}  bound {bound}")
    if args.out:
        record = {
            "workload": args.workload,
            "seeds": args.seeds,
            "trace": args.trace,
            "run_seconds": spec["run_seconds"],
            "machine": {"python": platform.python_version(), "platform": platform.platform()},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
