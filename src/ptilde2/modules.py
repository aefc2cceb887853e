"""Modules over the superalgebra: action matrices, highest-weight
construction, the induced module on the odd generator, and all weight-space
machinery including the canonical-residue case analysis for the seven root
weights.

A module holds one read-only array of action matrices, one per algebra basis
element, whose nonzero entries are read once, on first use, by every reader:
the parity check, the derivation system and the representation law

    action([x, y]) = action(x) action(y) - (-1)^{|x||y|} action(y) action(x)

with the bracket expanded through the structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import Subspace, check_odd_prime
from .superalgebra import (
    P2_LABELS,
    Superalgebra,
    Weight,
    _diagonal_weights,
    _json_integers,
    _weight_spaces,
)

__all__ = [
    "RepresentationError",
    "GModule",
    "KacModule",
    "residue",
    "residue_comparisons",
    "residue_shift_table",
    "build_simple_module",
    "build_kac_module",
    "basis_module_weights",
    "weight_decomposition",
    "target_weight_space",
    "root_target_weights",
    "case_table_weight_space",
    "gmodule_to_json",
    "gmodule_from_json",
]


class RepresentationError(ValueError):
    """Raised when action matrices fail the representation law or parity blocks."""


def residue(c, p: int) -> int:
    """Canonical integer representative of c mod p, in {0, ..., p-1}."""
    return int(c) % p


@dataclass(eq=False)
class GModule:
    """A module: actions[i] is basis element i's matrix mod p, in one read-only int64 array."""

    algebra: Superalgebra
    labels: tuple[str, ...]
    parity: tuple[int, ...]
    actions: np.ndarray
    highest_weight: tuple[int, int] | None = None

    def __post_init__(self):
        p = self.algebra.p
        if len(self.parity) != self.dim or not set(self.parity) <= {0, 1}:
            raise ValueError(f"need one parity in {{0, 1}} per basis vector, got {self.parity}")
        if self.highest_weight is not None and len(self.highest_weight) != 2:
            raise ValueError(f"highest weight must have 2 entries, got {self.highest_weight}")
        mats = [np.asarray(m, dtype=np.int64) for m in self.actions]
        for a in mats:
            if a.shape != (self.dim, self.dim):
                raise ValueError(f"action matrix shape {a.shape}, expected square of {self.dim}")
        if len(mats) != self.algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        acts = np.stack(mats)
        if acts.size and (acts.min() < 0 or acts.max() >= p):
            np.mod(acts, p, out=acts)
        acts.setflags(write=False)
        self.actions = acts

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(action, row, col, value) of every nonzero action entry, read on first use."""
        flat = np.flatnonzero(self.actions)
        return (*np.unravel_index(flat, self.actions.shape), self.actions.reshape(-1)[flat])

    def act(self, i: int, v) -> np.ndarray:
        return (self.actions[i] @ np.asarray(v, dtype=np.int64)) % self.p

    def representation_violations(self) -> list[tuple[int, int]]:
        """Ordered algebra basis pairs where the representation law fails.

        Every term of action([x_i, x_j]) - x_i x_j + sign x_j x_i is formed
        from the nonzero entries alone, as a (pair, row, col, value) entry;
        one sort of the keys sums the entries with exact integer reductions.
        """
        dg, dm = self.algebra.dim, self.dim
        pair, sk, sc, sign = _law_constants(self.algebra)
        ax, ar, ac, av = self.entries
        # action([x_i, x_j]) = sum_k c_ijk action(x_k): constant c_ijk meets entries of x_k
        s, e = _join(sk, ax)
        # (x_u x_w)[row, col] from entries (u, row, mid) and (w, mid, col) enters
        # the pair (u, w) with sign -1 and the pair (w, u) with sign (-1)^{|x_u||x_w|}
        u, w = _join(ac, ar)
        xu, xw = ax[u], ax[w]
        prod = av[u] * av[w]
        cell = ar[u] * dm + ac[w]
        pairs = np.concatenate([pair[s], xu * dg + xw, xw * dg + xu])
        keys = pairs * dm * dm + np.concatenate([ar[e] * dm + ac[e], cell, cell])
        val = np.concatenate([sc[s] * av[e], -prod, sign[xu, xw] * prod])
        if val.size == 0:
            return []
        order = np.argsort(keys)
        keys, val = keys[order], val[order]
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        sums = np.add.reduceat(val, starts) % self.p
        # keys are sorted, so the failing pairs come out in order
        bad = (keys[starts[sums != 0]] // (dm * dm)).tolist()
        return [(k // dg, k % dg) for k in dict.fromkeys(bad)]

    def parity_violations(self) -> list[tuple[int, int, int]]:
        """Entries (i, r, c) where action i does not respect the parity split."""
        mp = np.asarray(self.parity)
        i, r, c, _ = self.entries
        bad = mp[r] != (mp[c] + np.asarray(self.algebra.parity)[i]) % 2
        return list(zip(i[bad].tolist(), r[bad].tolist(), c[bad].tolist()))

    def validate(self) -> None:
        bad = self.representation_violations()
        if bad:
            raise RepresentationError(f"representation law fails on pairs {bad[:6]}")
        badp = self.parity_violations()
        if badp:
            raise RepresentationError(f"parity blocks violated at {badp[:6]}")


@lru_cache(maxsize=32)
def _law_constants(g: Superalgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Once per algebra: each c_ijk != 0 as (i * dim g + j, k, c_ijk), and (-1)^{|x_u||x_w|}."""
    si, sj, sk = np.nonzero(g.structure)
    par = np.asarray(g.parity)
    return si * g.dim + sj, sk, g.structure[si, sj, sk], np.where(np.outer(par, par) % 2, -1, 1)


@dataclass(eq=False)
class KacModule(GModule):
    """Induced module with even part {1*v_k} and odd part {g*v_k}, k <= top_index."""

    top_index: int = 0

    def even_index(self, k: int) -> int:
        return _kac_index(self.top_index, 0, k)

    def odd_index(self, k: int) -> int:
        return _kac_index(self.top_index, 1, k)


def _kac_index(t: int, parity: int, k: int) -> int:
    """Position of 1*v_k (parity 0) or g*v_k (parity 1) in a Kac basis of top index t."""
    return parity * (t + 1) + k


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (l, r) with left[l] == right[r], grouped by l."""
    order = np.argsort(right, kind="stable")
    lo = np.searchsorted(right[order], left, side="left")
    counts = np.searchsorted(right[order], left, side="right") - lo
    li = np.repeat(np.arange(left.size), counts)
    offset = np.arange(li.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return li, order[lo[li] + offset]


def _interval(lo: int, hi: int) -> range:
    # inclusive integer interval, empty when lo > hi
    return range(lo, hi + 1)


def residue_comparisons(p: int, b) -> dict[str, tuple[bool, bool]]:
    """Both sides of the ten residue-comparison equivalences, for one b.

    Each entry maps a comparison "residue(b+s) <= residue(2b+t)" to the pair
    (comparison holds, interval condition on residue(b) holds); a correct
    table makes the two booleans equal for every b.
    """
    check_odd_prime(p)
    x = residue(b, p)

    def phi(c: int) -> int:
        return residue(c, p)

    return {
        "b<=2b+2": (phi(x) <= phi(2 * x + 2), x in _interval(0, (p - 3) // 2) or x == p - 2),
        "b+1<=2b+2": (phi(x + 1) <= phi(2 * x + 2), x in _interval(0, (p - 3) // 2) or x == p - 1),
        "b+2<=2b+2": (phi(x + 2) <= phi(2 * x + 2), x in _interval(0, (p - 3) // 2) or x == p - 2),
        "b<=2b": (phi(x) <= phi(2 * x), x in _interval(0, (p - 1) // 2)),
        "b-1<=2b": (phi(x - 1) <= phi(2 * x), x in _interval(1, (p - 1) // 2) or x == p - 1),
        "b+1<=2b": (phi(x + 1) <= phi(2 * x), x in _interval(1, (p - 1) // 2) or x == p - 1),
        "b+1<=2b+4": (
            phi(x + 1) <= phi(2 * x + 4),
            x in _interval(0, (p - 5) // 2) or x in (p - 1, p - 3),
        ),
        "b+2<=2b+4": (
            phi(x + 2) <= phi(2 * x + 4),
            x in _interval(0, (p - 5) // 2) or x in (p - 1, p - 2),
        ),
        "b+3<=2b+4": (
            phi(x + 3) <= phi(2 * x + 4),
            x in _interval(0, (p - 5) // 2) or x in (p - 1, p - 3),
        ),
        "b-1<=2b-2": (phi(x - 1) <= phi(2 * x - 2), x in _interval(1, (p + 1) // 2)),
    }


def residue_shift_table(p: int, b) -> dict[str, tuple[int, int]]:
    """Direct vs tabulated values of residue(b+1), residue(b+2), residue(2b+2).

    The tabulated value is the piecewise closed form in terms of x = residue(b):
    shifts wrap once past p-1, and 2x+2 wraps on the upper half of the range.
    """
    check_odd_prime(p)
    x = residue(b, p)
    direct = {
        "b": residue(b, p),
        "b+1": residue(b + 1, p),
        "b+2": residue(b + 2, p),
        "2b+2": residue(2 * b + 2, p),
    }
    if x <= (p - 3) // 2:
        two = 2 * x + 2
    elif x <= p - 3:
        two = 2 * x + 2 - p
    elif x == p - 2:
        two = p - 2
    else:
        two = 0
    tabulated = {
        "b": x,
        "b+1": x + 1 if x <= p - 2 else 0,
        "b+2": x + 2 if x <= p - 3 else x + 2 - p,
        "2b+2": two,
    }
    return {k: (direct[k], tabulated[k]) for k in direct}


def _action_array(labels: tuple[str, ...], n: int, entries) -> np.ndarray:
    """The (len(labels), n, n) action array with each (label, rows, cols, values) written in."""
    acts = np.zeros((len(labels), n, n), dtype=np.int64)
    for label, rows, cols, values in entries:
        acts[labels.index(label), rows, cols] = values
    return acts


def build_simple_module(g0: Superalgebra, a, b) -> GModule:
    """Highest-weight module of the grade-zero subalgebra with weight (a, b).

    Basis v_0, ..., v_t with t = residue(b-a):  h1 v_k = (a+k) v_k,
    h2 v_k = (b-k) v_k, alpha v_k = k(b-a-k+1) v_{k-1}, beta v_k = v_{k+1}
    and beta v_t = 0 (truncated at the maximal submodule).
    """
    if g0.labels != ("h1", "h2", "alpha", "beta"):
        raise ValueError("expected the grade-zero subalgebra (h1, h2, alpha, beta)")
    p = g0.p
    a, b = residue(a, p), residue(b, p)
    t = residue(b - a, p)
    n = t + 1
    ks = np.arange(n, dtype=np.int64)
    up = ks[1:] * (b - a - ks[1:] + 1) % p  # alpha v_k = up[k-1] v_{k-1}
    actions = _action_array(g0.labels, n, [
        ("h1", ks, ks, (a + ks) % p),
        ("h2", ks, ks, (b - ks) % p),
        ("alpha", ks[:-1], ks[1:], up),
        ("beta", ks[1:], ks[:-1], 1),
    ])
    m = GModule(
        algebra=g0,
        labels=tuple(f"v{k}" for k in range(n)),
        parity=tuple(0 for _ in range(n)),
        actions=actions,
        highest_weight=(a, b),
    )
    m.validate()
    return m


def build_kac_module(g: Superalgebra, a, b) -> KacModule:
    """Kac module K(a, b): even basis 1*v_k, odd basis g*v_k, k = 0..residue(b-a).

    Transcribes the explicit action list (positive-grade part kills the even
    half, the odd generator maps 1*v_k to g*v_k and squares to zero) and
    validates the representation law for all 64 ordered basis pairs; failures
    raise RepresentationError rather than being suppressed.
    """
    if g.labels != P2_LABELS:
        raise ValueError("expected the full 8-dimensional supermatrix algebra")
    p = g.p
    a, b = residue(a, p), residue(b, p)
    t = residue(b - a, p)
    ks = np.arange(t + 1, dtype=np.int64)
    ev, od = _kac_index(t, 0, ks), _kac_index(t, 1, ks)  # 1*v_k and g*v_k
    up = ks[1:] * (b - a - ks[1:] + 1) % p  # alpha 1*v_k = up[k-1] 1*v_{k-1}
    actions = _action_array(g.labels, 2 * (t + 1), [
        ("h1", ev, ev, (a + ks) % p),
        ("h1", od, od, (a + ks + 1) % p),
        ("h2", ev, ev, (b - ks) % p),
        ("h2", od, od, (b - ks + 1) % p),
        ("gamma", od, ev, 1),
        ("e14+e23", ev, od, (b - a - 2 * ks) % p),
        ("alpha", ev[:-1], ev[1:], up),
        ("alpha", od[:-1], od[1:], up),
        ("e13", ev[:-1], od[1:], up),
        ("beta", ev[1:], ev[:-1], 1),
        ("beta", od[1:], od[:-1], 1),
        ("e24", ev[1:], od[:-1], p - 1),
    ])
    labels = tuple(f"1*v{k}" for k in range(t + 1)) + tuple(f"g*v{k}" for k in range(t + 1))
    km = KacModule(
        algebra=g,
        labels=labels,
        parity=tuple(0 for _ in range(t + 1)) + tuple(1 for _ in range(t + 1)),
        actions=actions,
        highest_weight=(a, b),
        top_index=t,
    )
    km.validate()
    return km


def basis_module_weights(m: GModule) -> list[Weight]:
    """Weight of each module basis vector; requires diagonal Cartan action."""
    return [Weight(*w) for w in _module_weights(m).tolist()]


def _module_weights(m: GModule) -> np.ndarray:
    """One (h1, h2) row of residues per module basis vector; raises unless diagonal."""
    weights = _diagonal_weights(m.algebra, m.actions)
    if weights is None:
        raise ValueError("a Cartan element does not act diagonally on the module basis")
    return weights


def weight_decomposition(m: GModule) -> dict[Weight, Subspace]:
    """Group module basis vectors by their simultaneous Cartan eigenvalue pair."""
    return _weight_spaces(m.p, np.array(basis_module_weights(m)))


def target_weight_space(m: GModule, w: Weight) -> Subspace:
    """The weight space at w by direct eigenvalue matching (any w permitted)."""
    return _matching_weight_space(m.p, np.array(basis_module_weights(m)), w)


def _matching_weight_space(p: int, weights: np.ndarray, w: Weight) -> Subspace:
    """Span of the basis vectors whose row of weights equals w mod p."""
    w = (residue(w[0], p), residue(w[1], p))
    match = np.all(weights == w, axis=1)
    return Subspace(p, len(weights), np.eye(len(weights), dtype=np.int64)[match])


# Case table for the weight space of K(a, b) at each root weight.  Per weight:
# an even branch and an odd branch, each a triple (offset, condition, s) with
#   basis index k = residue(b + offset),
#   condition (lo, half, extras): lo <= residue(b) <= (p+half)//2, or
#     residue(b) in {p+e for e in extras},
#   branch applies only when a+b = s mod p.
_CASE_TABLE: dict[tuple[int, int], tuple[tuple, tuple]] = {
    (-2, 0): ((0, (0, -3, (-2,)), -2), (1, (0, -5, (-1, -3)), -4)),
    (-1, -1): ((1, (0, -3, (-1,)), -2), (2, (0, -5, (-1, -2)), -4)),
    (-1, 1): ((-1, (1, -1, (-1,)), 0), (0, (0, -3, (-2,)), -2)),
    (0, -2): ((2, (0, -3, (-2,)), -2), (3, (0, -5, (-1, -3)), -4)),
    (1, -1): ((1, (1, -1, (-1,)), 0), (2, (0, -3, (-2,)), -2)),
    (1, 1): ((-1, (1, 1, ()), 2), (0, (0, -1, ()), 0)),
    (0, 0): ((0, (0, -1, ()), 0), (1, (0, -3, (-1,)), -2)),
}


def root_target_weights(p: int) -> list[Weight]:
    """The seven root weights of the algebra, canonicalized mod p: the case table's keys."""
    return [Weight(residue(x, p), residue(y, p)) for x, y in _CASE_TABLE]


def _condition_holds(p: int, x: int, cond: tuple) -> bool:
    lo, half, extras = cond
    if lo <= x <= (p + half) // 2:
        return True
    return any(x == p + e for e in extras)


def case_table_weight_space(p: int, a, b, w: Weight) -> Subspace:
    """Predicted weight space at a root weight, from the residue case table.

    Independent of the eigenvalue scan: the only inputs are the residue of b,
    the value of a+b mod p, and the tabulated interval conditions.  Basis
    indices past the top index denote vectors that are zero in the quotient,
    contributing nothing.
    """
    p = check_odd_prime(p)
    n = 2 * (residue(b - a, p) + 1)
    # unit rows at increasing indices (even before odd) are already canonical
    return Subspace(p, n, np.eye(n, dtype=np.int64)[_case_table_rows(p, a, b, w)])


def _case_table_rows(p: int, a: int, b: int, w: Weight) -> list[int]:
    """Basis indices of K(a, b) spanning its weight space at a root weight, by the case table."""
    key = (residue(w[0], p), residue(w[1], p))
    # the seven root weights stay distinct mod any odd prime
    branches = next((v for (x, y), v in _CASE_TABLE.items() if (x % p, y % p) == key), None)
    if branches is None:
        raise KeyError(f"{w} is not one of the seven root weights mod {p}")
    t, x, s = residue(b - a, p), residue(b, p), residue(a + b, p)
    rows = []
    for parity, (off, cond, ab) in enumerate(branches):
        k = residue(b + off, p)
        if s == residue(ab, p) and _condition_holds(p, x, cond) and k <= t:
            rows.append(_kac_index(t, parity, k))
    return rows


def gmodule_to_json(m: GModule) -> dict:
    return {
        "p": m.p,
        "lambda": list(m.highest_weight) if m.highest_weight else None,
        "labels": list(m.labels),
        "parity": list(m.parity),
        "actions": m.actions.tolist(),
    }


def gmodule_from_json(data: dict, algebra: Superalgebra) -> GModule:
    """Rebuild a module over the given algebra; the representation law is re-checked."""
    lam = data.get("lambda")
    m = GModule(
        algebra=algebra,
        labels=tuple(data["labels"]),
        parity=tuple(_json_integers(data["parity"], "parity", 1).tolist()),
        actions=_json_integers(data["actions"], "actions", 3),
        highest_weight=None if lam is None else tuple(_json_integers(lam, "lambda", 1).tolist()),
    )
    m.validate()
    return m
