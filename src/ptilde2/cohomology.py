"""Derivation spaces, inner derivations and first cohomology H1 = Der/Ider.

A cochain is a linear map from the algebra into the module, stored as a
dim(M) x dim(g) matrix whose column j is the value on basis element x_j.  A
parity-f cochain phi is a derivation when, for all homogeneous x, y,

    phi([x, y]) = (-1)^{f|x|} x phi(y) - (-1)^{|y|(f+|x|)} y phi(x).

The identity is generated for all 64 ordered basis pairs (the redundancy is
cheap and guards against sign slips), as the sparse entries of one system per
cell for both parities.  The coordinate phi(x_k)_r belongs to the cochains of
parity |r| + |x_k| and has weight wt(r) - root(k); the equation of the pair
(i, j) at module row r has the signs of parity f = |r| + |x_i| + |x_j| and
weight wt(r) - root(i) - root(j), mod p.  So every row is parity-pure, and an
entry that crosses weights or parities raises.  Der and WDer are two column
sets over the system: every coordinate, and those of weight 0.  Cells are
solved in batches: Der(g, M_1 + ... + M_k) is the direct sum of the
Der(g, M_c), so Der and WDer of every cell of a batch are the summands of one
system, whose blocks, keyed by (summand, weight, parity), are exactly those
of its summands.  One batched elimination reduces the zero-padded stack of
all blocks, each with its columns reversed; the canonical block kernels are
read straight off it, merged by leading column, and split into one canonical
basis per summand, whose rows then split into even and odd parts by the
parity of their leading coordinates.  A single cell is the batch of one, and
everything after the solve is per cell and per parity.  All subspaces live
in the flattened coordinate space of cochain matrices, flat index (row r,
column j) -> r * dim(g) + j, so sums and membership tests compose across
solver routes.  Membership is the residual w - w[P] B of a canonical basis B
with pivot columns P, formed from the nonzeros of B.  The rows of a space
that are independent modulo Ider are the pivot columns of one RREF of their
transposed residuals modulo Ider, and h1 reads three facts off them: the Der
rows picked are the coset representatives of Der/Ider, there are
dim Der - dim Ider of them exactly when Ider lies in Der, and the number of
WDer rows picked is the weight route.

h1 always runs two independent routes: dim Der - dim Ider, and
dim WDer - dim(WDer meet Ider), computed dimension-only as the rank of WDer
modulo Ider, dim(WDer + Ider) - dim Ider.  WDer has its own blocks in the
batch's elimination, not a slice of Der's weight-0 block.  With both spaces
checked to lie in Der, the routes agree exactly when WDer + Ider = Der, the
paper's lemma, i.e. Der_nu = Ider_nu for every weight nu != 0; any
disagreement, like any other broken solver invariant, raises SolverFailure.
The paper's closed form is stated once, in the _REGIMES table, which
predict_h1, predictor_clauses and outer_cocycles all read.  Its prediction
is a third value; predictor disagreement is reported, not raised, since the
validated solver is the oracle of record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .linalg import (
    Subspace,
    _reversed_kernels,
    _rref_batched,
    _rref_in_place,
    check_odd_prime,
)
from .modules import GModule, _kac_index, build_kac_module, residue
from .superalgebra import P2_LABELS, Superalgebra, _diagonal_weights, build_p_tilde_2

__all__ = [
    "Cochain",
    "CochainSpace",
    "H1Dims",
    "CohomologyReport",
    "SolverFailure",
    "RouteDisagreement",
    "derivation_residual",
    "derivation_space",
    "weight_derivation_space",
    "inner_derivation",
    "inner_space",
    "outer_cocycles",
    "predict_h1",
    "predictor_clauses",
    "h1",
    "cartan_values_annihilated",
    "weight_plus_inner_equals_der",
    "report_to_json",
    "analyze",
]


class SolverFailure(RuntimeError):
    """An internal invariant of the H1 solver failed; its result cannot be trusted."""


class RouteDisagreement(SolverFailure):
    """The full-derivation route and the weight-derivation route disagreed."""

    def __init__(self, p, weight, der_route, weight_route):
        self.p = p
        self.weight = weight
        self.der_route = der_route
        self.weight_route = weight_route
        super().__init__(
            f"solver routes disagree at p={p}, lambda={weight}: "
            f"der-ider={der_route} vs wder-(wder^ider)={weight_route}"
        )

    def __reduce__(self):
        # rebuild from the fields, so the error survives a worker-process hop
        return type(self), (self.p, self.weight, self.der_route, self.weight_route)


@dataclass(frozen=True, eq=False)
class Cochain:
    """A homogeneous linear map algebra -> module; column j = value on basis j."""

    p: int
    parity: int
    values: np.ndarray  # dim(M) x dim(g)

    def __post_init__(self):
        check_odd_prime(self.p)
        arr = np.mod(np.asarray(self.values, dtype=np.int64), self.p)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def value_on(self, j: int) -> np.ndarray:
        return self.values[:, j].copy()

    def check_coherent(self, g: Superalgebra, m: GModule) -> None:
        """Every value must land in the module parity block |x_j| + parity."""
        for r, j in zip(*np.nonzero(self.values)):
            if m.parity[r] != (g.parity[j] + self.parity) % 2:
                raise ValueError(
                    f"parity-incoherent cochain: entry ({r}, {j}) outside its block"
                )


@dataclass(frozen=True, eq=False)
class CochainSpace:
    """One parity part of a derivation-type space, with its canonical basis.

    shape is (dim M, dim g); the basis cochains are built from space.basis on
    first access, since most solves only ever use the space.
    """

    parity: int
    space: Subspace
    shape: tuple[int, int]

    @cached_property
    def basis(self) -> tuple[Cochain, ...]:
        return tuple(self.cochain(k) for k in range(self.dim))

    def cochain(self, k: int) -> Cochain:
        """Basis row k as a Cochain."""
        return Cochain(self.space.p, self.parity, self.space.basis[k].reshape(self.shape))

    @property
    def dim(self) -> int:
        return self.space.dim


def _sign(bit: int) -> int:
    return -1 if bit % 2 else 1


def derivation_residual(g: Superalgebra, m: GModule, phi: Cochain, i: int, j: int) -> np.ndarray:
    """Defect of the derivation identity on the ordered pair (i, j); zero iff it holds."""
    phi.check_coherent(g, m)
    p = g.p
    f = phi.parity
    s1 = _sign(f * g.parity[i])
    s2 = _sign(g.parity[j] * (f + g.parity[i]))
    lhs = phi.values @ g.structure[i, j]
    r = lhs - s1 * (m.actions[i] @ phi.values[:, j]) + s2 * (m.actions[j] @ phi.values[:, i])
    return r % p


def _coordinate_parities(g: Superalgebra, m: GModule) -> np.ndarray:
    """Parity |r| + |x_k| of each flat coordinate phi(x_k)_r: its cochains' parity."""
    return np.add.outer(np.asarray(m.parity), np.asarray(g.parity)).reshape(-1) % 2


def _coherent_columns(g: Superalgebra, m: GModule, parity: int) -> np.ndarray:
    return np.flatnonzero(_coordinate_parities(g, m) == parity)


def _system_entries(g: Superalgebra, m: GModule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 64-pair derivation system of both parities as sparse (row, column, value) entries.

    Row (i * dim g + j) * dim M + r is module row r of the identity on the
    pair (i, j), with the signs of its parity f = |r| + |x_i| + |x_j|, and
    column r * dim g + k is the flat coordinate phi(x_k)_r.  Entries at the
    same position add.
    """
    dm, dg = m.dim, g.dim
    par = np.asarray(g.parity)
    rs = np.arange(dm)
    js = np.arange(dg)
    # phi([x_i, x_j]) = sum_k c_ijk phi(x_k), at every module row r
    ci, cj, ck = np.nonzero(g.structure)
    c_rows = ((ci * dg + cj) * dm)[:, None] + rs
    c_cols = rs * dg + ck[:, None]
    c_vals = np.broadcast_to(g.structure[ci, cj, ck][:, None], c_rows.shape)
    # one nonzero (x, r, r') of an action matrix, used as x_i or as x_j
    ax, ar, ac, av = m.entries
    av = av[:, None]
    x_par, r_par = par[ax][:, None], np.asarray(m.parity)[ar][:, None]
    # - (-1)^{f|x_i|} x_i phi(x_j), for every j
    i_rows = (ax[:, None] * dg + js) * dm + ar[:, None]
    i_cols = ac[:, None] * dg + js
    i_vals = np.where(x_par * (r_par + x_par + par) % 2, 1, -1) * av
    # + (-1)^{|x_j|(f+|x_i|)} x_j phi(x_i), for every i, where f + |x_i| = |r| + |x_j|
    j_rows = (js * dg + ax[:, None]) * dm + ar[:, None]
    j_cols = ac[:, None] * dg + js
    j_vals = np.broadcast_to(np.where(x_par * (r_par + x_par) % 2, -1, 1) * av, j_rows.shape)
    return (
        np.concatenate([c_rows.ravel(), i_rows.ravel(), j_rows.ravel()]),
        np.concatenate([c_cols.ravel(), i_cols.ravel(), j_cols.ravel()]),
        np.concatenate([c_vals.ravel(), i_vals.ravel(), j_vals.ravel()]),
    )


def _weight_codes(g: Superalgebra, m: GModule) -> tuple[np.ndarray, np.ndarray, bool]:
    """Weight of each system row and of each flat coordinate, as integer codes.

    Coordinate (r, k) has weight wt(r) - root(k); row r of the pair (i, j) has
    weight wt(r) - root(i) - root(j).  The third value says whether the Cartan
    action is diagonal; if it is not, every weight is 0, so the whole system
    is a single block.
    """
    p = g.p
    roots = _diagonal_weights(g, g.structure)
    wts = _diagonal_weights(g, m.actions)
    diagonal = roots is not None and wts is not None
    if not diagonal:
        roots = np.zeros((g.dim, 2), dtype=np.int64)
        wts = np.zeros((m.dim, 2), dtype=np.int64)

    def code(w: np.ndarray) -> np.ndarray:
        w = np.mod(w, p)
        return (w[..., 0] * p + w[..., 1]).reshape(-1)

    coords = wts[:, None, :] - roots[None, :, :]  # [r, k]
    rows = wts[None, None] - roots[:, None, None] - roots[None, :, None]  # [i, j, r]
    return code(rows), code(coords), diagonal


class _System(NamedTuple):
    """The derivation system of (g, M), both parities, shared by every solve over it."""

    g: Superalgebra
    m: GModule
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]  # checked to be weight- and parity-graded
    coord_wt: np.ndarray  # weight code of each flat coordinate
    coord_par: np.ndarray  # parity of each flat coordinate
    diagonal: bool  # whether the Cartan action is diagonal


def _graded_system(g: Superalgebra, m: GModule) -> _System:
    """Assemble the system once, and check that it is graded by weight and by parity."""
    row_wt, coord_wt, diagonal = _weight_codes(g, m)
    rows, cols, vals = _system_entries(g, m)
    if np.any(row_wt[rows] != coord_wt[cols]):
        raise ValueError("the derivation system mixes weights: the module is not weight-graded")
    coord_par = _coordinate_parities(g, m)
    # row (i, j, r) has parity |x_i| + |x_j| + |r|, the parity of coordinate (r, j) plus |x_i|
    row_par = np.add.outer(g.parity, coord_par.reshape(m.dim, g.dim).T).reshape(-1) % 2
    if np.any(row_par[rows] != coord_par[cols]):
        raise ValueError("the derivation system mixes parities: the module is not parity-graded")
    return _System(g, m, (rows, cols, vals), coord_wt, coord_par, diagonal)


def _weight_zero_columns(system: _System) -> np.ndarray:
    """WDer's free columns: the coordinates of weight wt(r) - root(k) = 0."""
    if not system.diagonal:
        raise ValueError("weight-derivations need a Cartan action diagonal on both bases")
    return np.flatnonzero(system.coord_wt == 0)


def _solve_constrained(systems: list[_System], columns: list[np.ndarray]) -> list[Subspace]:
    """Kernels of several derivation systems, each restricted to its free coordinates.

    Each (system, column set) pair is one summand of a direct-sum system,
    which never exists as one matrix.  Summand c's coordinates are offset
    past those of the summands before it, and blocks are keyed by (c, weight,
    parity), so each lies in one summand and is the block it alone would
    have.  Rows are keyed by (block, row), so they need no offset.  The
    entries are grouped by block into one zero-padded (blocks, rows, cols)
    stack, each block with its columns in descending flat order, and the
    whole stack is row-reduced by a single batched elimination.  The reversed
    columns let each block's canonical kernel be read straight off its
    reduced form.  The block kernels have disjoint supports, so sorting their
    rows by leading column gives, summand after summand, each summand's
    canonical basis.
    """
    p, dg = systems[0].g.p, systems[0].g.dim
    sizes = np.array([system.coord_wt.size for system in systems])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    free_cols = np.concatenate([cols + offsets[c] for c, cols in enumerate(columns)])
    if free_cols.size == 0:
        return [Subspace.zero(p, size) for size in sizes]
    coord_block = np.concatenate(
        [(system.coord_wt + c * p * p) * 2 + system.coord_par for c, system in enumerate(systems)]
    )
    free = np.zeros(n, dtype=bool)
    free[free_cols] = True
    entries = [system.entries for system in systems]
    rows = np.concatenate([rows for rows, _, _ in entries])
    cols = np.concatenate([cols + offsets[c] for c, (_, cols, _) in enumerate(entries)])
    vals = np.concatenate([vals for _, _, vals in entries])
    keep = free[cols]
    rows, cols, vals = rows[keep], cols[keep], vals[keep]

    # blocks by code; inside a block, position q holds the q-th largest column
    order = np.lexsort((-free_cols, coord_block[free_cols]))
    codes, starts, widths = np.unique(
        coord_block[free_cols[order]], return_index=True, return_counts=True
    )
    n_blocks = widths.size
    col_block = np.repeat(np.arange(n_blocks), widths)
    col_pos = np.arange(free_cols.size) - starts[col_block]
    block_cols = np.full((n_blocks, widths.max()), n)
    block_cols[col_block, col_pos] = free_cols[order]
    block_of = np.empty(n, dtype=np.int64)
    pos_of = np.empty(n, dtype=np.int64)
    block_of[free_cols[order]] = col_block
    pos_of[free_cols[order]] = col_pos

    # rows numbered within their block, through one sort of (block, row) keys
    n_rows = dg * int(sizes.max())
    keys, entry_key = np.unique(block_of[cols] * n_rows + rows, return_inverse=True)
    key_block = keys // n_rows
    heights = np.bincount(key_block, minlength=n_blocks)
    key_row = np.arange(keys.size) - (np.cumsum(heights) - heights)[key_block]
    stack = np.zeros((n_blocks, heights.max(initial=0), widths.max()), dtype=np.int64)
    np.add.at(stack, (key_block[entry_key], key_row[entry_key], pos_of[cols]), vals)
    stack %= p

    pivot = _rref_batched(stack, p)
    free_b, free_c, vectors = _reversed_kernels(stack, pivot, widths, p)
    # each kernel row in its summand's own coordinates, as wide as the widest summand
    width = int(sizes.max())
    summand = codes[free_b] // (2 * p * p)
    local = np.where(block_cols[free_b] < n, block_cols[free_b] - offsets[summand][:, None], width)
    merged = np.zeros((free_b.size, width + 1), dtype=np.int64)
    merged[np.arange(free_b.size)[:, None], local] = vectors
    leads = block_cols[free_b, free_c]
    by_lead = np.argsort(leads)
    bounds = np.searchsorted(leads[by_lead], offsets)
    merged = merged[by_lead]
    return [
        Subspace(p, size, merged[bounds[c] : bounds[c + 1], :size]) for c, size in enumerate(sizes)
    ]


def _parity_parts(system: _System, space: Subspace) -> dict[int, CochainSpace]:
    """The even and odd parts of a space solved over the system.

    Every block of a solve lies in one parity, so each basis row lies in the
    parity of its leading coordinate, and the rows of one parity are the
    canonical basis of that part.
    """
    row_par = system.coord_par[(space.basis != 0).argmax(axis=1)]
    shape = (system.m.dim, system.g.dim)
    return {
        s: CochainSpace(s, Subspace(space.p, space.ambient_dim, space.basis[row_par == s]), shape)
        for s in (0, 1)
    }


def derivation_space(g: Superalgebra, m: GModule, parity: int) -> CochainSpace:
    """Canonical basis of the parity part of Der(g, M)."""
    if parity not in (0, 1):
        raise ValueError(f"cochain parity must be 0 or 1, got {parity!r}")
    system = _graded_system(g, m)
    space = _solve_constrained([system], [np.arange(system.coord_wt.size)])[0]
    return _parity_parts(system, space)[parity]


def weight_derivation_space(g: Superalgebra, m: GModule, parity: int) -> CochainSpace:
    """Derivations that map every root space into the matching module weight space.

    Implemented as the derivation system with every coordinate that leaves its
    target weight space pinned to zero, i.e. the free coordinates are those of
    weight 0.
    """
    if parity not in (0, 1):
        raise ValueError(f"cochain parity must be 0 or 1, got {parity!r}")
    system = _graded_system(g, m)
    space = _solve_constrained([system], [_weight_zero_columns(system)])[0]
    return _parity_parts(system, space)[parity]


def inner_derivation(g: Superalgebra, m: GModule, v) -> Cochain:
    """The cochain x -> (-1)^{|x||v|} x v attached to a homogeneous module vector."""
    vec = np.mod(np.asarray(v, dtype=np.int64).reshape(-1), m.p)
    if vec.size != m.dim:
        raise ValueError(f"vector length {vec.size} != module dim {m.dim}")
    support = {m.parity[r] for r in np.nonzero(vec)[0]}
    if len(support) > 1:
        raise ValueError("inner derivations require a homogeneous vector")
    pv = support.pop() if support else 0
    cols = np.zeros((m.dim, g.dim), dtype=np.int64)
    for j in range(g.dim):
        cols[:, j] = _sign(g.parity[j] * pv) * (m.actions[j] @ vec)
    return Cochain(m.p, pv, cols)


def inner_space(g: Superalgebra, m: GModule) -> tuple[Subspace, Subspace]:
    """(even, odd) spans of the inner derivations of all module basis vectors."""
    n = m.dim * g.dim
    mpar = np.asarray(m.parity)
    # row r, the inner derivation of basis vector r: entry (s, j) is
    # sign(|x_j| |r|) * actions[j][s, r], at flat position s * dim g + j
    signs = np.where(np.outer(mpar, g.parity) % 2, -1, 1)  # [r, j]
    rows = signs[:, None, :] * m.actions.transpose(2, 1, 0)  # [r, s, j]
    rows = rows.reshape(m.dim, n)
    return tuple(
        Subspace.from_spanning(m.p, n, rows[mpar == parity]) for parity in (0, 1)
    )


# The closed form for dim H1, one entry per regime: (clause, a+b mod p,
# p - residue(b), dim H1).  For odd p no two regimes overlap.
_REGIMES = (
    ("dim2:a+b=-2,res(b)=p-2", -2, 2, 2),
    ("dim1:a+b=-2,res(b)=p-1", -2, 1, 1),
    ("dim1:a+b=-4,res(b)=p-1", -4, 1, 1),
)


def _regimes(p: int, a, b) -> list[tuple[str, int, int, int]]:
    """The _REGIMES entries that (a, b) matches, in table order."""
    p = check_odd_prime(p)
    s, x = residue(a + b, p), residue(b, p)
    return [r for r in _REGIMES if s == residue(r[1], p) and x == p - r[2]]


def predict_h1(p: int, a, b) -> int:
    """Closed-form dimension of H1 for the Kac module with highest weight (a, b)."""
    return sum(dim for *_, dim in _regimes(p, a, b))


def predictor_clauses(p: int, a, b) -> tuple[str, ...]:
    """Which closed-form clauses match; more than one would flag an overlap."""
    return tuple(clause for clause, *_ in _regimes(p, a, b))


def outer_cocycles(p: int, a, b) -> list[Cochain]:
    """The distinguished outer cocycles of the regime containing (a, b).

    Three regimes exist: a+b = -2 with residue(b) = p-2 carries two odd
    cocycles (supported on alpha/e13 and on beta/e24), a+b = -2 with
    residue(b) = p-1 carries one odd cocycle valued on the Cartan pair, and
    a+b = -4 with residue(b) = p-1 carries one even cocycle supported on the
    positive-grade part.  Outside all regimes this raises ValueError.
    """
    p = check_odd_prime(p)
    matched = _regimes(p, a, b)
    if not matched:
        raise ValueError(
            f"(a, b) = ({a}, {b}) mod {p} lies outside the three outer-cocycle regimes"
        )
    _, s, gap, _ = matched[0]
    t = residue(b - a, p)
    n = 2 * (t + 1)
    idx = {lab: i for i, lab in enumerate(P2_LABELS)}
    even_row, odd_row = (partial(_kac_index, t, parity) for parity in (0, 1))
    c = np.zeros((n, 8), dtype=np.int64)
    if gap == 2:  # residue(b) = p-2
        c[odd_row(p - 2), idx["alpha"]] = 1
        c[even_row(p - 2), idx["e13"]] = p - 1
        c2 = np.zeros((n, 8), dtype=np.int64)
        c2[odd_row(0), idx["beta"]] = 1
        c2[even_row(0), idx["e24"]] = 1
        return [Cochain(p, 1, c), Cochain(p, 1, c2)]
    if s == -2:  # a+b = -2, residue(b) = p-1
        c[odd_row(0), idx["h1"]] = 1
        c[odd_row(0), idx["h2"]] = 1
        return [Cochain(p, 1, c)]
    # a+b = -4, residue(b) = p-1
    c[odd_row(0), idx["e13"]] = 2
    c[odd_row(2), idx["e24"]] = 1
    c[odd_row(1), idx["e14+e23"]] = p - 2
    return [Cochain(p, 0, c)]


@dataclass(frozen=True)
class H1Dims:
    der_even: int
    der_odd: int
    ider_even: int
    ider_odd: int
    h1_even: int
    h1_odd: int
    h1_total: int


@dataclass(frozen=True, eq=False)
class CohomologyReport:
    p: int
    weight: tuple[int, int]
    dims: H1Dims
    representatives: tuple[Cochain, ...]
    predicted: int
    agrees: bool


def _independent_modulo(ider: Subspace, rows: np.ndarray) -> list[int]:
    """Indices of the rows independent modulo Ider and the rows before them.

    These are the pivot columns of one RREF of the transposed residuals
    modulo Ider (a row with zero residual is a zero column, never a pivot),
    so their count is dim(span(rows) + Ider) - dim Ider.
    """
    residual = ider._residual(rows)
    return _rref_in_place(residual.T[residual.any(axis=0)], ider.p)


def _h1_batch(g: Superalgebra, modules: list[GModule]) -> list:
    """h1 of several cells at once: per module, (report, wder, ider) or its SolverFailure.

    Each cell's system is assembled once, and one _solve_constrained call
    takes Der (every coordinate) and then WDer (the weight-0 coordinates) of
    every cell as its summands; each WDer block is its own slice of the
    stack, so the weight route stays an independent reduction.  The rest is
    per cell and per parity, in _h1_from_spaces; a cell whose checks fail
    gives its SolverFailure and leaves the others be.
    """
    if any(m.highest_weight is None for m in modules):
        raise ValueError("module must carry its highest weight")
    systems = [_graded_system(g, m) for m in modules]
    der_cols = [np.arange(x.coord_wt.size) for x in systems]
    spaces = _solve_constrained(systems * 2, der_cols + [_weight_zero_columns(x) for x in systems])
    parts = [_parity_parts(x, space) for x, space in zip(systems * 2, spaces)]
    outcomes = []
    for c, m in enumerate(modules):
        try:
            outcomes.append(_h1_from_spaces(g, m, parts[c], parts[len(modules) + c]))
        except SolverFailure as exc:
            outcomes.append(exc)
    return outcomes


def _h1_from_spaces(g: Superalgebra, m: GModule, der: dict, wder: dict):
    """One cell's (report, wder, ider), given its Der and WDer per parity."""
    ider = dict(enumerate(inner_space(g, m)))

    picks = {}
    for s in (0, 1):
        picks[s] = _independent_modulo(ider[s], der[s].space.basis)
        if len(picks[s]) != der[s].dim - ider[s].dim:
            raise SolverFailure(f"inner derivations escaped the derivation space (parity {s})")
        if not wder[s].space.is_subspace_of(der[s].space):
            raise SolverFailure(f"weight-derivations escaped the derivation space (parity {s})")

    h1_even = der[0].dim - ider[0].dim
    h1_odd = der[1].dim - ider[1].dim
    w_even, w_odd = (len(_independent_modulo(ider[s], wder[s].space.basis)) for s in (0, 1))
    if (w_even, w_odd) != (h1_even, h1_odd):
        raise RouteDisagreement(g.p, m.highest_weight, (h1_even, h1_odd), (w_even, w_odd))

    reps = [der[s].cochain(k) for s in (0, 1) for k in picks[s]]
    dims = H1Dims(
        der_even=der[0].dim,
        der_odd=der[1].dim,
        ider_even=ider[0].dim,
        ider_odd=ider[1].dim,
        h1_even=h1_even,
        h1_odd=h1_odd,
        h1_total=h1_even + h1_odd,
    )
    a, b = m.highest_weight
    predicted = predict_h1(g.p, a, b)
    report = CohomologyReport(
        p=g.p,
        weight=(a, b),
        dims=dims,
        representatives=tuple(reps),
        predicted=predicted,
        agrees=(dims.h1_total == predicted),
    )
    return report, wder, ider


def h1(g: Superalgebra, m: GModule) -> CohomologyReport:
    """Full H1 report with the dual-route consistency check.

    Raises RouteDisagreement if the weight-derivation route yields different
    dimensions than Der/Ider (which would signal a solver bug, since every
    derivation decomposes as a weight-derivation plus an inner one), and
    SolverFailure if inner or weight-derivations escape the derivation space.
    """
    outcome = _h1_batch(g, [m])[0]
    if isinstance(outcome, SolverFailure):
        raise outcome
    return outcome[0]


def cartan_values_annihilated(
    g: Superalgebra, m: GModule, cochains=None
) -> list[tuple[int, int, int]]:
    """Violations of x . phi(h) = 0 over weight-derivation basis cochains.

    Returns (cochain position, algebra index of x, Cartan index of h) triples;
    an empty list certifies the annihilation property.
    """
    if cochains is None:
        cochains = list(weight_derivation_space(g, m, 0).basis) + list(
            weight_derivation_space(g, m, 1).basis
        )
    bad = []
    for pos, phi in enumerate(cochains):
        for h_idx in g.cartan:
            val = phi.values[:, h_idx]
            for x_idx in range(g.dim):
                if np.any((m.actions[x_idx] @ val) % m.p):
                    bad.append((pos, x_idx, h_idx))
    return bad


def weight_plus_inner_equals_der(g: Superalgebra, m: GModule) -> bool:
    """Whether WDer + Ider = Der holds in each parity."""
    ider = inner_space(g, m)
    return all(
        weight_derivation_space(g, m, s).space + ider[s] == derivation_space(g, m, s).space
        for s in (0, 1)
    )


def report_to_json(report: CohomologyReport, g: Superalgebra, m: GModule) -> dict:
    return {
        "p": report.p,
        "lambda": list(report.weight),
        "dims": dict(vars(report.dims)),
        "predicted": report.predicted,
        "agrees": report.agrees,
        "representatives": [
            {
                "parity": c.parity,
                "algebra_labels": list(g.labels),
                "module_labels": list(m.labels),
                "values": c.values.tolist(),
            }
            for c in report.representatives
        ],
    }


def analyze(p: int, a, b) -> CohomologyReport:
    """Convenience wrapper: build the algebra and Kac module, then run h1."""
    g = build_p_tilde_2(p)
    return h1(g, build_kac_module(g, a, b))
