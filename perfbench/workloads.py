"""The four benchmark workloads, their seeded inputs and their golden checks.

A workload is a list of units run in order; one run of all its units is a
pass.  Each unit drives the package through its public surface (the click
command group `ptilde2.cli.main` and the public `suite_*` functions) and
returns how many of its grid cells failed.  A cell is one (p, a, b).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from click.testing import CliRunner

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SCAN_PRIMES = (3, 5, 7, 11)
LARGE_P = 23
# Top third of Kac-module dimensions at p=23: dim K = 2(t+1) >= 32, t = (b-a) mod p.
LARGE_TOPS = tuple(range(15, LARGE_P))
LEMMAS_P = 7
ORACLES_P = 23

WORKLOADS = ("scan-paper", "h1-large", "check-lemmas", "check-oracles")


@dataclass(frozen=True)
class Unit:
    name: str
    cells: int  # cells that fail if the unit raises
    run: Callable[[], int]  # returns the number of failed cells


@dataclass(frozen=True)
class Workload:
    name: str
    primes: tuple[int, ...]  # algebras set up before the first cell
    cells: int  # distinct cells in one pass
    units: list[Unit]
    setup: Callable[[], None]  # builds the CLI's algebras, so no cell pays for them


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def row_digest(line: str) -> str:
    return sha256(line)[:16]


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


def sample_large_cells(seed: int) -> list[tuple[int, int]]:
    """One (a, b) at p=23 for each top index t >= 15, a drawn from the seed.

    Stratifying by t fixes the mix of module dimensions, so the total work of
    a pass barely depends on the seed while the cells themselves do.
    """
    rng = random.Random(seed)
    cells = []
    for t in LARGE_TOPS:
        a = rng.randrange(LARGE_P)
        cells.append((a, (a + t) % LARGE_P))
    return cells


def scan_csv_failures(text: str, golden: dict) -> int:
    """Cells whose `scan --out csv` row differs from the golden row digests."""
    if sha256(text) == golden["sha256"]:
        return 0
    lines = text.splitlines()
    rows = golden["rows"]
    if not lines or lines[0] != golden["header"] or len(lines) - 1 != len(rows):
        return len(rows)
    bad = sum(row_digest(line) != want for line, want in zip(lines[1:], rows))
    return max(bad, 1)


def h1_json_failed(text: str, digest: str) -> bool:
    if sha256(text) != digest:
        return True
    return json.loads(text)["agrees"] is not True


def scan_output(runner: CliRunner, main, p: int):
    return runner.invoke(main, ["scan", "--p", str(p), "--out", "csv"])


def h1_output(runner: CliRunner, main, p: int, a: int, b: int):
    args = ["h1", "--p", str(p), "--a", str(a), "--b", str(b), "--format", "json"]
    return runner.invoke(main, args)


def build(name: str, seed: int, golden: dict) -> Workload:
    """The workload `name` with its inputs drawn from `seed`."""
    import ptilde2.cli as cli

    runner = CliRunner()

    def scan_unit(p: int) -> Unit:
        def run() -> int:
            result = scan_output(runner, cli.main, p)
            if result.exit_code != 0:
                return p * p
            return scan_csv_failures(result.stdout, golden["scan"][str(p)])

        return Unit(f"scan p={p}", p * p, run)

    def h1_unit(a: int, b: int) -> Unit:
        def run() -> int:
            result = h1_output(runner, cli.main, LARGE_P, a, b)
            if result.exit_code != 0:
                return 1
            return int(h1_json_failed(result.stdout, golden["h1"][f"{a},{b}"]))

        return Unit(f"h1 p={LARGE_P} ({a},{b})", 1, run)

    def suite_unit(suite: str, p: int, cells: int) -> Unit:
        def run() -> int:
            findings = getattr(cli, f"suite_{suite}")(p)
            return min(len(findings), cells)

        return Unit(f"suite {suite} p={p}", cells, run)

    if name == "scan-paper":
        primes, units = SCAN_PRIMES, [scan_unit(p) for p in SCAN_PRIMES]
        cells = sum(p * p for p in SCAN_PRIMES)
    elif name == "h1-large":
        primes, units = (LARGE_P,), [h1_unit(a, b) for a, b in sample_large_cells(seed)]
        cells = len(units)
    elif name == "check-lemmas":
        primes, cells = (LEMMAS_P,), LEMMAS_P**2
        units = [suite_unit("lemmas", LEMMAS_P, cells)]
    elif name == "check-oracles":
        primes, cells = (ORACLES_P,), ORACLES_P**2
        units = [suite_unit(s, ORACLES_P, cells) for s in ("algebra", "module", "weights")]
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")

    def setup() -> None:
        for p in primes:
            result = runner.invoke(cli.main, ["export", "--p", str(p), "--what", "algebra"])
            if result.exit_code != 0:
                raise RuntimeError(f"export --p {p} failed: {result.output}")

    return Workload(name, primes, cells, units, setup)
