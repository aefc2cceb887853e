"""Output bytes against the benchmark's golden digests (read, never written).

`perfbench/golden.json` records the seed's `scan --out csv` output (a SHA-256
of the whole stdout and the first 16 hex digits of the SHA-256 of each row)
and the SHA-256 of `h1 --format json` for every p=23 cell with dim K >= 32.
The digest rule is the one in `perfbench/workloads.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ptilde2.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_scan_rows_match_golden_digests(p):
    golden = GOLDEN["scan"][str(p)]
    result = CliRunner().invoke(main, ["scan", "--p", str(p), "--out", "csv"])
    assert result.exit_code == 0
    header, *rows = result.stdout.splitlines()
    assert header == golden["header"]
    assert [sha256(row)[:16] for row in rows] == golden["rows"]
    assert sha256(result.stdout) == golden["sha256"]


# the two-class cell (0, p-2), and cells across the top indices 15..22
@pytest.mark.parametrize("a, b", [(0, 21), (0, 15), (11, 4), (7, 3), (22, 21)])
def test_h1_json_matches_golden_digest(a, b):
    args = ["h1", "--p", "23", "--a", str(a), "--b", str(b), "--format", "json"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    assert sha256(result.stdout) == GOLDEN["h1"][f"{a},{b}"]
