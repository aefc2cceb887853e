"""Record the golden output digests the benchmark checks every run against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

It writes perfbench/golden.json: for each prime of `scan-paper`, the digest of
the whole `scan --out csv` stdout and of each row; for every cell `h1-large`
can sample (p=23, top index t >= 15), the digest of `h1 --format json`.
Each h1 cell's wall time goes to stderr.  It takes about five minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from click.testing import CliRunner  # noqa: E402

import ptilde2.cli as cli  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> None:
    runner = CliRunner()
    golden = {"scan": {}, "h1": {}}
    for p in wl.SCAN_PRIMES:
        result = wl.scan_output(runner, cli.main, p)
        if result.exit_code != 0:
            raise SystemExit(f"scan --p {p} failed: {result.output}")
        lines = result.stdout.splitlines()
        golden["scan"][str(p)] = {
            "sha256": wl.sha256(result.stdout),
            "header": lines[0],
            "rows": [wl.row_digest(line) for line in lines[1:]],
        }
    for t in wl.LARGE_TOPS:
        for a in range(wl.LARGE_P):
            b = (a + t) % wl.LARGE_P
            start = time.perf_counter()
            result = wl.h1_output(runner, cli.main, wl.LARGE_P, a, b)
            took = time.perf_counter() - start
            if result.exit_code != 0 or json.loads(result.stdout)["agrees"] is not True:
                raise SystemExit(f"h1 at ({a}, {b}) failed or disagrees: {result.output}")
            golden["h1"][f"{a},{b}"] = wl.sha256(result.stdout)
            print(f"t={t} a={a} b={b} {took * 1000:.1f} ms", file=sys.stderr, flush=True)
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
