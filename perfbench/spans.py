"""Span recorder and the wrappers that install it on the package.

The recorder is one context manager (`Recorder.span`) plus the span list;
call counts, busy and self times and the nullspace shape counts are all
derived from the spans.  A span is [name, start, end, parent index, cell,
attrs], where the cell is the (p, a, b) whose Kac module was built last.

`install` wraps public functions and methods of the `ptilde2` modules from
outside; nothing under src/ knows about it.  Every run installs the cell
clock on `build_kac_module` (one timestamp per cell); only a traced run also
records spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, attribute path, span name)
TARGETS = (
    ("superalgebra", "build_p_tilde_2", "superalgebra.build_p_tilde_2"),
    ("modules", "build_kac_module", "modules.build_kac_module"),
    ("modules", "GModule.validate", "modules.validate"),
    ("modules", "target_weight_space", "modules.target_weight_space"),
    ("modules", "case_table_weight_space", "modules.case_table_weight_space"),
    ("cohomology", "h1", "cohomology.h1"),
    ("cohomology", "derivation_space", "cohomology.derivation_space"),
    ("cohomology", "weight_derivation_space", "cohomology.weight_derivation_space"),
    ("cohomology", "inner_space", "cohomology.inner_space"),
    ("cohomology", "derivation_residual", "cohomology.derivation_residual"),
    ("linalg", "FpMatrix.nullspace", "linalg.nullspace"),
    ("linalg", "Subspace.from_spanning", "linalg.from_spanning"),
    ("linalg", "Subspace.intersection", "linalg.intersection"),
    ("linalg", "Subspace.__add__", "linalg.subspace_add"),
    ("linalg", "Subspace.contains", "linalg.contains"),
    ("cli", "scan_rows", "cli.scan_rows"),
    ("cli", "suite_algebra", "cli.suite.algebra"),
    ("cli", "suite_module", "cli.suite.module"),
    ("cli", "suite_weights", "cli.suite.weights"),
    ("cli", "suite_lemmas", "cli.suite.lemmas"),
)
CELL_TARGET = TARGETS[1]
NULLSPACE = "linalg.nullspace"
DERIVATION_SOLVES = ("cohomology.derivation_space", "cohomology.weight_derivation_space")


class Recorder:
    """Spans kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[list] = []
        self.cell_starts: list[tuple[tuple[int, int, int], float]] = []
        self.cell = None
        self.absent: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent, self.cell, attrs]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def start_cell(self, p: int, a, b) -> None:
        self.cell = (p, int(a) % p, int(b) % p)
        self.cell_starts.append((self.cell, time.perf_counter()))


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) or None when the name is gone."""
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def _wrapper(fn, name: str, rec: Recorder, traced: bool):
    if name == CELL_TARGET[2]:

        @functools.wraps(fn)
        def cell_clock(g, a, b, *args, **kwargs):
            rec.start_cell(g.p, a, b)
            if not traced:
                return fn(g, a, b, *args, **kwargs)
            with rec.span(name):
                return fn(g, a, b, *args, **kwargs)

        return cell_clock

    if name == NULLSPACE:

        @functools.wraps(fn)
        def nullspace(self, *args, **kwargs):
            rows, cols = self.data.shape
            with rec.span(name, rows=rows, cols=cols, itemsize=self.data.itemsize) as s:
                out = fn(self, *args, **kwargs)
                s[5]["rank"] = cols - out.dim
                return out

        return nullspace

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return spanned


@contextmanager
def install(rec: Recorder, traced: bool):
    """Wrap the targets (only the cell clock unless traced); undo on exit.

    A module-level function is rebound in every ptilde2 module that imported
    it by name.  Targets that no longer exist are listed in `rec.absent`.
    """
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "ptilde2" or name.startswith("ptilde2.")
    }
    undo = []
    rec.absent = []
    try:
        for module_name, path, span_name in TARGETS if traced else (CELL_TARGET,):
            module = modules.get(f"ptilde2.{module_name}")
            found = None if module is None else _resolve(module, path)
            if found is None:
                rec.absent.append(span_name)
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrapper(raw.__func__, span_name, rec, traced))
                else:
                    wrapped = _wrapper(raw, span_name, rec, traced)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, raw))
                continue
            wrapped = _wrapper(raw, span_name, rec, traced)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, raw))
        yield rec
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def cell_seconds(cell_starts, unit_ends) -> dict:
    """Wall time of each cell: from its module build to the next build or unit end.

    `unit_ends` are the times each unit returned; a cell visited by several
    units (the module and weights suites) gets the sum of its intervals.
    """
    marks = sorted([(t, 0, cell) for cell, t in cell_starts] + [(t, 1, None) for t in unit_ends])
    out: dict = {}
    current = None
    for t, kind, cell in marks:
        if current is not None:
            out[current[0]] = out.get(current[0], 0.0) + (t - current[1])
        current = (cell, t) if kind == 0 else None
    return out


def self_seconds(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[1]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[2])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[2] - s[1]) - covered)
    return out


def layer_metrics(rec: Recorder, cells: int) -> dict[str, float]:
    """Per-layer calls, busy and self seconds, and the nullspace shape counts."""
    selfs = self_seconds(rec.spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, self_s in zip(rec.spans, selfs):
        calls[s[0]] = calls.get(s[0], 0) + 1
        busy[s[0]] = busy.get(s[0], 0.0) + (s[2] - s[1])
        own[s[0]] = own.get(s[0], 0.0) + self_s
    out: dict[str, float] = {}
    for _, _, name in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
        out[f"{name}.self_s"] = own.get(name, 0.0)
    out["cohomology.derivation_space.calls_per_cell"] = (
        calls.get("cohomology.derivation_space", 0) / cells if cells else 0.0
    )
    input_bytes = max_bytes = rows = rank = 0
    for s in rec.spans:
        if s[0] != NULLSPACE:
            continue
        attrs = s[5]
        size = attrs["rows"] * attrs["cols"] * attrs["itemsize"]
        input_bytes += size
        max_bytes = max(max_bytes, size)
        if _under(rec.spans, s, DERIVATION_SOLVES):
            rows += attrs["rows"]
            rank += attrs["rank"]
    out["linalg.nullspace.input_mb"] = input_bytes / 1e6
    out["linalg.nullspace.max_input_mb"] = max_bytes / 1e6
    out["linalg.nullspace.rank_ratio"] = rank / rows if rows else 0.0
    return out


def _under(spans, span, names) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False
