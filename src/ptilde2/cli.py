"""Command line surface: single-instance reports, grid scans, verification
suites, and JSON export of the algebra and its modules.

Exit codes: 0 success, 1 verification failure (or an internal solver failure,
such as a solver-route disagreement, or a failed Kac build), 2 usage error.
`scan` and the grid suites of `check` share one walker, which builds each Kac
module once, in lexicographic (a, b) order, and checks it.  A walk that needs
h1 is cut into batches, each solved as one direct-sum system
(cohomology._h1_batch); any other goes cell by cell.  A failed build is its
cell's finding, and the rest of its batch is still solved.  Scans hand batches
to worker processes, which return every cell's outcome; the parent emits the
rows in order or raises the first failing cell's error, for any worker count.
Every click.echo names its stream: without file=, click caches a text wrapper
per stream it writes to that holds the stream alive, so every CliRunner
invocation would leave its output streams behind.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass

import click
import numpy as np

from .cohomology import (
    SolverFailure,
    _h1_batch,
    _independent_modulo,
    _predicted_by_parity,
    cartan_values_annihilated,
    derivation_residual,
    h1,
    outer_cocycles,
    predictor_clauses,
    report_to_json,
)
from .linalg import check_odd_prime
from .modules import (
    RepresentationError,
    _case_table,
    _module_weights,
    build_kac_module,
    build_simple_module,
    gmodule_to_json,
    residue,
    residue_comparisons,
    residue_shift_table,
)
from .superalgebra import (
    Weight,
    build_p_tilde_2,
    grade_zero_subalgebra,
    p_tilde_2_matrices,
    root_decomposition,
    superalgebra_to_json,
    supercommutator,
    validate_superalgebra,
)

CSV_HEADER = "a,b,phi_b_minus_a,dim_K,der_even,der_odd,ider,h1,predicted,agrees"


@dataclass(frozen=True)
class ScanRow:
    a: int
    b: int
    phi_b_minus_a: int
    dim_K: int
    dim_der_even: int
    dim_der_odd: int
    dim_ider: int
    h1_total: int
    predicted: int
    agrees: bool

    def csv(self) -> str:
        return ",".join(str(v).lower() for v in vars(self).values())


def _odd_prime_option(ctx, param, value):
    try:
        return check_odd_prime(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _scan_row(km, outcome) -> ScanRow | SolverFailure:
    if isinstance(outcome, SolverFailure):
        return outcome
    rep = outcome[0]
    a, b = km.highest_weight
    return ScanRow(
        a=a,
        b=b,
        phi_b_minus_a=km.top_index,
        dim_K=km.dim,
        dim_der_even=rep.dims.der_even,
        dim_der_odd=rep.dims.der_odd,
        dim_ider=rep.dims.ider_even + rep.dims.ider_odd,
        h1_total=rep.dims.h1_total,
        predicted=rep.predicted,
        agrees=rep.agrees,
    )


# a batch of grid cells closes once the dims of its Kac modules sum to this
_BATCH_DIM_K = 64


def _grid_batches(p: int) -> list[list[tuple[int, int]]]:
    """The (a, b) grid in lexicographic order, cut into batches for _h1_batch."""
    batches, batch, total = [], [], 0
    for a in range(p):
        for b in range(p):
            batch.append((a, b))
            total += 2 * (residue(b - a, p) + 1)  # dim K(a, b)
            if total >= _BATCH_DIM_K:
                batches.append(batch)
                batch, total = [], 0
    return batches + [batch] if batch else batches


@functools.lru_cache(maxsize=None)
def _algebra_cache(p: int):
    return build_p_tilde_2(p)


_grade_zero_cache = functools.lru_cache(maxsize=None)(grade_zero_subalgebra)


def _worker_count(jobs: int, batches: int) -> int:
    """Worker processes for a scan: the requested count, capped by batches and CPUs."""
    return min(jobs, batches, os.cpu_count() or 1)


def _walk_batch(p: int, cells: list[tuple[int, int]], check, solve: bool) -> list:
    """_walk over the cells of one batch."""
    g = _algebra_cache(p)
    built = []
    for a, b in cells:
        try:
            built.append(build_kac_module(g, a, b))
        except RepresentationError as exc:
            built.append(exc)
    modules = [km for km in built if not isinstance(km, Exception)]
    outcomes = iter(_h1_batch(g, modules) if solve and modules else [None] * len(modules))
    return [km if isinstance(km, Exception) else check(km, next(outcomes)) for km in built]


def _walk(p: int, check, solve: bool, jobs: int = 1) -> list:
    """check(km, outcome) per (a, b) in lexicographic order, or that cell's RepresentationError.

    A solved walk is cut by _grid_batches and passes each cell's h1 outcome;
    any other passes None, cell by cell, so each check follows its own build.
    """
    batches = _grid_batches(p) if solve else [[(a, b)] for a in range(p) for b in range(p)]
    tasks = [(p, batch, check, solve) for batch in batches]
    workers = _worker_count(jobs, len(batches))
    if workers > 1:
        from multiprocessing import Pool  # only here: a serial run never pays for it
        with Pool(workers) as pool:
            results = pool.starmap(_walk_batch, tasks)
    else:
        results = [_walk_batch(*task) for task in tasks]
    return [out for batch in results for out in batch]


def scan_rows(p: int, jobs: int = 1) -> list[ScanRow]:
    """One row per (a, b) in lexicographic order, identical for any job count.

    The error raised is always that of the first failing cell in order: its
    RepresentationError, naming it, if its build failed, else its SolverFailure.
    """
    rows = _walk(p, _scan_row, solve=True, jobs=jobs)
    for cell, row in enumerate(rows):
        if isinstance(row, RepresentationError):
            raise RepresentationError(f"K({cell // p},{cell % p}): {row}") from row
        if isinstance(row, Exception):
            raise row
    return rows


def scan_summary(p: int, rows: list[ScanRow]) -> dict:
    counts: dict[str, int] = {}
    for row in rows:
        counts[str(row.h1_total)] = counts.get(str(row.h1_total), 0) + 1
    disagreements = [[r.a, r.b] for r in rows if not r.agrees]
    overlaps = [
        [a, b]
        for a in range(p)
        for b in range(p)
        if len(predictor_clauses(p, a, b)) > 1
    ]
    return {"h1_counts": counts, "disagreements": disagreements, "clause_overlaps": overlaps}


class _Commands(click.Group):
    """The command group: a failed solve or Kac build is one stderr line and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SolverFailure as exc:
            click.echo(f"internal solver failure: {exc}", file=sys.stderr)
        except RepresentationError as exc:
            click.echo(f"module build failed: {exc}", file=sys.stderr)
        sys.exit(1)


@click.group(cls=_Commands)
def main():
    """Exact H1 computations for the gl(2,2) supermatrix algebra (A B; C -A^T)."""


@main.command("h1")
@click.option("--p", required=True, type=int, callback=_odd_prime_option, help="odd prime modulus")
@click.option("--a", required=True, type=int, help="highest weight value on h1")
@click.option("--b", required=True, type=int, help="highest weight value on h2")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_h1(p, a, b, fmt):
    """Compute dim H1 for the Kac module with highest weight (a, b)."""
    g = _algebra_cache(p)
    km = build_kac_module(g, a, b)
    rep = h1(g, km)
    if fmt == "json":
        click.echo(json.dumps(report_to_json(rep, g, km), indent=2), file=sys.stdout)
        return
    d = rep.dims
    lines = [
        f"p = {p}, lambda = ({residue(a, p)}, {residue(b, p)}), dim K = {km.dim}",
        f"der_even = {d.der_even}  der_odd = {d.der_odd}",
        f"ider_even = {d.ider_even}  ider_odd = {d.ider_odd}",
        f"h1_even = {d.h1_even}  h1_odd = {d.h1_odd}  h1_total = {d.h1_total}",
        f"predicted = {rep.predicted}  agrees = {str(rep.agrees).lower()}",
    ]
    for i, c in enumerate(rep.representatives):
        nz = {
            g.labels[j]: {km.labels[r]: int(c.values[r, j]) for r in np.nonzero(c.values[:, j])[0]}
            for j in range(g.dim)
            if np.any(c.values[:, j])
        }
        lines.append(f"representative {i} (parity {c.parity}): {nz}")
    click.echo("\n".join(lines), file=sys.stdout)


@main.command("scan")
@click.option("--p", required=True, type=int, callback=_odd_prime_option)
@click.option("--out", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_scan(p, out, jobs):
    """Scan the full (a, b) grid; emit one row per weight plus a summary."""
    rows = scan_rows(p, jobs)
    summary = scan_summary(p, rows)
    if out == "csv":
        click.echo(CSV_HEADER, file=sys.stdout)
        for row in rows:
            click.echo(row.csv(), file=sys.stdout)
        click.echo(f"# summary: {json.dumps(summary, sort_keys=True)}", file=sys.stderr)
    else:
        payload = {"p": p, "rows": [vars(r) for r in rows], "summary": summary}
        click.echo(json.dumps(payload, indent=2), file=sys.stdout)


def suite_algebra(p: int) -> list[str]:
    """Axioms, the root table, and the bracket round-trip of the realization."""
    failures = []
    g = _algebra_cache(p)
    report = validate_superalgebra(g)
    if report:
        failures.append(f"axiom violations: {report[:5]}")
    expected_roots = {
        Weight(0, 0): ("h1", "h2"),
        Weight(residue(-2, p), 0): ("e13",),
        Weight(residue(-1, p), residue(-1, p)): ("e14+e23",),
        Weight(residue(-1, p), 1): ("alpha",),
        Weight(0, residue(-2, p)): ("e24",),
        Weight(1, residue(-1, p)): ("beta",),
        Weight(1, 1): ("gamma",),
    }
    decomp = root_decomposition(g)
    if set(decomp) != set(expected_roots):
        failures.append(f"root set {sorted(decomp)} != expected {sorted(expected_roots)}")
    else:
        for w, labels in expected_roots.items():
            idx = [g.index(lab) for lab in labels]
            if decomp[w].dim != len(idx) or not all(
                decomp[w].contains(np.eye(g.dim, dtype=np.int64)[i]) for i in idx
            ):
                failures.append(f"root space at {w} is not spanned by {labels}")
    mats = p_tilde_2_matrices(p)
    basis = [mats[lab] for lab in g.labels]
    flat = np.stack([m.reshape(-1) for m in basis], axis=1)
    for i in range(g.dim):
        for j in range(g.dim):
            direct = supercommutator(basis[i], basis[j], p).reshape(-1)
            from_tensor = (flat @ g.structure[i, j]) % p
            if np.any((direct - from_tensor) % p):
                failures.append(f"bracket round-trip fails at ({g.labels[i]}, {g.labels[j]})")
    plus = [i for i in range(g.dim) if g.zgrade[i] == 1]
    for i in plus:
        for j in plus:
            if np.any(g.structure[i, j]):
                failures.append(f"positive-grade part not abelian at ({i}, {j})")
    gi = g.index("gamma")
    if np.any(g.structure[gi, gi]):
        failures.append("[gamma, gamma] != 0")
    return failures


def _module_findings(km, outcome) -> list[str]:
    """The highest-weight laws of the cell's simple g_0-module, and dim K."""
    failures = []
    p, (a, b) = km.p, km.highest_weight
    g0 = _grade_zero_cache(km.algebra)
    simple = build_simple_module(g0, a, b)
    v0 = np.zeros(simple.dim, dtype=np.int64)
    v0[0] = 1
    if np.any(simple.act(g0.index("alpha"), v0)):
        failures.append(f"alpha v0 != 0 at ({a},{b})")
    if not np.array_equal(simple.act(g0.index("h1"), v0), (a % p) * v0 % p):
        failures.append(f"h1 v0 != a v0 at ({a},{b})")
    if not np.array_equal(simple.act(g0.index("h2"), v0), (b % p) * v0 % p):
        failures.append(f"h2 v0 != b v0 at ({a},{b})")
    if km.dim != 2 * (km.top_index + 1):
        failures.append(f"dim K({a},{b}) = {km.dim}")
    return failures


def _weight_findings(km, outcome) -> list[str]:
    """The closed-form basis weights of K(a, b) and the case-table oracle."""
    failures = []
    p, (a, b), t = km.p, km.highest_weight, km.top_index
    weights = _module_weights(km)
    ks = np.arange(t + 1)
    # [parity, k]: 1*v_k has weight (a+k, b-k), g*v_k has (a+k+1, b-k+1)
    want = (np.stack([a + ks, b - ks], axis=1) + np.arange(2)[:, None, None]) % p
    wrong = np.any(weights.reshape(2, t + 1, 2) != want, axis=2)
    for k, parity in zip(*np.nonzero(wrong.T)):
        failures.append(f"weight of {('even', 'odd')[parity]} basis {k} wrong at ({a},{b})")
    table = _case_table(p, a, b)
    # [root weight, basis vector]: which basis vectors have each root weight
    found = weights[:, 0] * p + weights[:, 1] == np.array([[x * p + y] for x, y in table])
    for (w, rows), hits in zip(table.items(), found):
        if np.flatnonzero(hits).tolist() != rows:
            failures.append(f"case-table mismatch at (p={p}, a={a}, b={b}, w={w})")
    return failures


def _lemma_findings(km, outcome) -> list[str]:
    """The derivation lemmas and the cocycle basis at one cell, over its h1's WDer and Ider."""
    g, (a, b) = km.algebra, km.highest_weight
    if isinstance(outcome, SolverFailure):
        return [f"solver failure at ({a},{b}): {outcome}"]
    failures = []
    report, wder, ider = outcome
    bad = cartan_values_annihilated(g, km, cochains=wder[0].basis + wder[1].basis)
    if bad:
        failures.append(f"Cartan values not annihilated at ({a},{b}): {bad[:3]}")
    try:
        cocycles = outer_cocycles(g.p, a, b)
    except ValueError:
        return failures
    for pos, c in enumerate(cocycles):
        try:
            c.check_coherent(g, km)
        except ValueError:
            failures.append(f"cocycle {pos} at ({a},{b}) is not of parity {c.parity}")
            continue
        residuals = [
            (i, j)
            for i in range(g.dim)
            for j in range(g.dim)
            if np.any(derivation_residual(g, km, c, i, j))
        ]
        if residuals:
            failures.append(f"cocycle {pos} at ({a},{b}) has residuals {residuals[:3]}")
        if ider[c.parity].contains(c.flat()):
            failures.append(f"cocycle {pos} at ({a},{b}) is inner")
    if failures:
        return failures
    # all else holds here: the cocycles of each parity must be a basis of H1 of that parity
    for s, want in enumerate(_predicted_by_parity(g.p, a, b)):
        rows = np.array([c.flat() for c in cocycles if c.parity == s], dtype=np.int64)
        free = len(_independent_modulo(ider[s], rows.reshape(-1, ider[s].ambient_dim)))
        h1_s = (report.dims.h1_even, report.dims.h1_odd)[s]
        if not free == len(rows) == h1_s == want:
            failures.append(f"parity-{s} cocycles at ({a},{b}) are not a basis of H1: {free} of "
                            f"{len(rows)} independent modulo Ider, h1 {h1_s}, closed form {want}")
    return failures


# the per-cell check of each grid suite; the lemma check needs the cell's h1
_CELL_CHECKS = {"module": _module_findings, "weights": _weight_findings, "lemmas": _lemma_findings}


def _grid_suites(p: int, names: list[str]) -> list[list[str]]:
    """The findings of each named grid suite over one walk, solved if it has the lemmas.

    A failed build is its cell's one finding in every suite.  The lemma suite
    opens with the residue comparisons and the shift table, which are per b.
    """
    found = {name: [] for name in names}
    if "lemmas" in found:
        for b in range(p):
            for name, (lhs, rhs) in residue_comparisons(p, b).items():
                if lhs != rhs:
                    found["lemmas"].append(f"residue comparison {name} fails at b={b}")
            for name, (direct, tabulated) in residue_shift_table(p, b).items():
                if direct != tabulated:
                    found["lemmas"].append(f"shift table row {name} fails at b={b}")

    def checks(km, outcome):
        return [_CELL_CHECKS[name](km, outcome) for name in names]

    for cell, out in enumerate(_walk(p, checks, solve="lemmas" in found)):
        if isinstance(out, RepresentationError):
            out = [[f"K({cell // p},{cell % p}) failed: {out}"]] * len(names)
        for name, part in zip(names, out):
            found[name] += part
    return list(found.values())


def suite_module(p: int) -> list[str]:
    """Representation law for every Kac module and the highest-weight laws."""
    return _grid_suites(p, ["module"])[0]


def suite_weights(p: int) -> list[str]:
    """Closed-form basis weights and the root-weight case-table oracle."""
    return _grid_suites(p, ["weights"])[0]


def suite_lemmas(p: int) -> list[str]:
    """Residue-comparison equivalences, the shift table, and the derivation lemmas."""
    return _grid_suites(p, ["lemmas"])[0]


_SUITES = {
    "algebra": suite_algebra,
    "module": suite_module,
    "weights": suite_weights,
    "lemmas": suite_lemmas,
}


@main.command("check")
@click.option("--p", required=True, type=int, callback=_odd_prime_option)
@click.option("--suite", type=click.Choice([*_SUITES, "all"]), default="all")
def cmd_check(p, suite):
    """Run verification suites across the whole (a, b) grid."""
    if suite == "all":
        names = ["algebra", *_CELL_CHECKS]
        results = [_SUITES["algebra"](p), *_grid_suites(p, list(_CELL_CHECKS))]
    else:
        names, results = [suite], [_SUITES[suite](p)]
    any_failed = False
    for name, failures in zip(names, results):
        if failures:
            any_failed = True
            click.echo(f"suite {name}: FAIL ({len(failures)} findings)", file=sys.stdout)
            for f in failures[:10]:
                click.echo(f"  {f}", file=sys.stdout)
        else:
            click.echo(f"suite {name}: PASS", file=sys.stdout)
    sys.exit(1 if any_failed else 0)


@main.command("export")
@click.option("--p", required=True, type=int, callback=_odd_prime_option)
@click.option("--a", type=int, default=0, show_default=True)
@click.option("--b", type=int, default=0, show_default=True)
@click.option("--what", type=click.Choice(["algebra", "module"]), default="algebra")
def cmd_export(p, a, b, what):
    """Emit the JSON form of the algebra, or of the Kac module at (a, b)."""
    g = _algebra_cache(p)
    if what == "algebra":
        click.echo(json.dumps(superalgebra_to_json(g), indent=2), file=sys.stdout)
    else:
        km = build_kac_module(g, a, b)
        click.echo(json.dumps(gmodule_to_json(km), indent=2), file=sys.stdout)


if __name__ == "__main__":
    main()
