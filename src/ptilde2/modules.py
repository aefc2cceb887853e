"""Modules over the superalgebra: action matrices, highest-weight
construction, the induced module on the odd generator, and all weight-space
machinery including the canonical-residue case analysis for the seven root
weights.

A module holds one read-only array of action matrices, one per algebra basis
element.  Its nonzero entries and its basis weights (the Cartan diagonals)
are read once, on first use, by every reader (a reassigned array is read
afresh): the inner derivations, the parity check, the derivation system,
the weight spaces and the representation law

    action([x, y]) = action(x) action(y) - (-1)^{|x||y|} action(y) action(x)

with the bracket expanded through the structure constants.  A weight module
(distinct basis weights, each entry shifting weight by its root) has one
nonzero per action column, so its law is one scalar per (pair, column): a
table of one matrix product and two gathers.  Any other module is checked by
the dense identity, the law's definition over whole matrices.  The Kac
module K(a, b) is written from one list of twelve closed-form bands, and the
simple module L(a, b) from its first four, the g_0 bands on the even half.
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
    _json_integers,
    _json_labels,
    _root_weights,
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


class _Actions:
    """GModule.actions: every assignment, the constructor's included, is copied
    into one int64 array, checked, reduced mod p and frozen, and drops the
    cached entries and weights."""

    def __get__(self, m, owner=None):
        if m is None:
            raise AttributeError("actions")  # a required field: no class default
        return m._actions

    def __set__(self, m, actions):
        whole = isinstance(actions, np.ndarray) and actions.ndim == 3 and actions.dtype.kind in "iu"
        mats = actions.astype(np.int64) if whole else [np.asarray(a, np.int64) for a in actions]
        for a in mats:
            if a.shape != (m.dim, m.dim):
                raise ValueError(f"action matrix shape {a.shape}, expected square of {m.dim}")
        if len(mats) != m.algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        acts = mats if whole else np.stack(mats)
        if acts.size and (acts.min() < 0 or acts.max() >= m.p):
            np.mod(acts, m.p, out=acts)
        acts.setflags(write=False)
        m.__dict__.pop("entries", None)
        m.__dict__.pop("weights", None)
        m._actions = acts


@dataclass(eq=False)
class GModule:
    """A module: actions[i] is basis element i's matrix mod p, in one read-only int64 array."""

    algebra: Superalgebra
    labels: tuple[str, ...]
    parity: tuple[int, ...]
    actions: np.ndarray = _Actions()
    highest_weight: tuple[int, int] | None = None

    def __post_init__(self):
        if len(self.parity) != self.dim or not set(self.parity) <= {0, 1}:
            raise ValueError(f"need one parity in {{0, 1}} per basis vector, got {self.parity}")
        if self.highest_weight is not None and len(self.highest_weight) != 2:
            raise ValueError(f"highest weight must have 2 entries, got {self.highest_weight}")

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

    @cached_property
    def weights(self) -> np.ndarray | None:
        """Read-only (h1, h2) weights of the basis; None if a Cartan entry is off-diagonal."""
        x, r, c, v = self.entries
        weights = np.zeros((self.dim, 2), dtype=np.int64)
        for col, h in enumerate(self.algebra.cartan):
            on = x == h
            if np.any(r[on] != c[on]):
                return None
            weights[r[on], col] = v[on]
        weights.setflags(write=False)
        return weights

    def representation_violations(self) -> list[tuple[int, int]]:
        """Algebra basis pairs (i, j) where the representation law fails, in order.

        A weight module is checked weight by weight, any other by the dense
        identity; both give the same pairs.
        """
        bad = _weighted_violations(self)
        return _dense_violations(self) if bad is None else bad

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
def _law_constants(g: Superalgebra) -> tuple:
    """Once per algebra: the signs (-1)^{|x_u||x_w|}, and the roots, or None unless
    every c_ijk != 0 has root(k) = root(i) + root(j)."""
    si, sj, sk = np.nonzero(g.structure)
    par = np.asarray(g.parity)
    roots = _root_weights(g)
    if roots is not None and np.any((roots[si] + roots[sj] - roots[sk]) % g.p):
        roots = None
    return np.where(np.outer(par, par) % 2, -1, 1), roots


def _weighted_violations(m: GModule) -> list[tuple[int, int]] | None:
    """The failing pairs of a weight module, in order; None for any other module.

    Column c of action x holds one nonzero at most, value[x, c] at row
    target[x, c], so column c of the law at (i, j) is the scalar
    sum_k c_ijk value[k, c] - value[i, target[j, c]] value[j, c]
    + (-1)^{|x_i||x_j|} value[j, target[i, c]] value[i, c] on the one vector
    of weight wt(c) + root(i) + root(j).
    """
    g, p, w = m.algebra, m.p, m.weights
    sign, roots = _law_constants(g)
    if roots is None or w is None:
        return None
    x, r, c, v = m.entries
    codes = w[:, 0] * p + w[:, 1]
    shifted = (w[c] + roots[x]) % p
    if np.unique(codes).size < m.dim or np.any(codes[r] != shifted[:, 0] * p + shifted[:, 1]):
        return None
    dg, dm = g.dim, m.dim
    target, value = np.zeros((2, dg, dm), dtype=np.int64)
    target[x, c], value[x, c] = r, v
    hop = value[:, target]  # [i, j, c] = value[i, target[j, c]]
    law = (g.structure.reshape(dg * dg, dg) @ value).reshape(dg, dg, dm) - hop * value
    law += sign[:, :, None] * hop.transpose(1, 0, 2) * value[:, None, :]
    return [(k // dg, k % dg) for k in np.flatnonzero(np.any(law % p, axis=2)).tolist()]


def _dense_violations(m: GModule) -> list[tuple[int, int]]:
    """The failing pairs of any module, in order, from the law's definition.

    Every structure constant and action entry is a residue below p <
    MAX_MODULUS = 2^16, so each product is below 2^32 and each entry of the
    law sums fewer than dim g + 2 dim m < 2^31 of them: exact in int64.
    Step i checks (i, j) and (j, i) for j <= i from x_i x_j and x_j x_i, so
    it holds at most dim g of the module's n x n matrices at once.
    """
    g, p, n, acts = m.algebra, m.p, m.dim, m.actions
    sign, _ = _law_constants(g)
    flat = acts.reshape(g.dim, n * n)
    bad = np.zeros((g.dim, g.dim), dtype=bool)
    for i in range(g.dim):
        head = acts[: i + 1]
        right, left = acts[i] @ head, head @ acts[i]  # [j] = x_i x_j and x_j x_i
        s = sign[i, : i + 1, None, None]
        law = (g.structure[i, : i + 1] @ flat).reshape(i + 1, n, n) - right + s * left
        bad[i, : i + 1] = np.any(law % p, axis=(1, 2))
        law = (g.structure[: i + 1, i] @ flat).reshape(i + 1, n, n) - left + s * right
        bad[: i + 1, i] = np.any(law % p, axis=(1, 2))
    return [(i, j) for i, j in np.argwhere(bad).tolist()]


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


# label strings are made once: fresh ones per build grew the heap of a grid walk by ~5 MB
_LABELS: dict[str, list[str]] = {}


def _basis_labels(prefix: str, n: int) -> tuple[str, ...]:
    names = _LABELS.setdefault(prefix, [])
    names.extend(f"{prefix}{k}" for k in range(len(names), n))
    return tuple(names[:n])


def _action_array(labels: tuple[str, ...], n: int, entries) -> np.ndarray:
    """The (len(labels), n, n) action array with each (label, rows, cols, values) written in."""
    acts = np.zeros((len(labels), n, n), dtype=np.int64)
    for label, rows, cols, values in entries:
        acts[labels.index(label), rows, cols] = values
    return acts


def _kac_bands(p: int, a: int, b: int) -> tuple[int, list[tuple]]:
    """Top index t and the 12 (label, rows, cols, values) bands of K(a, b), for residues a, b;
    the first four, the g_0 bands on the even half 1*v_k, are also those of L(a, b)."""
    t = residue(b - a, p)
    ks = np.arange(t + 1, dtype=np.int64)
    ev, od = _kac_index(t, 0, ks), _kac_index(t, 1, ks)  # 1*v_k and g*v_k
    up = ks[1:] * (b - a - ks[1:] + 1) % p  # alpha 1*v_k = up[k-1] 1*v_{k-1}
    return t, [
        ("h1", ev, ev, (a + ks) % p),
        ("h2", ev, ev, (b - ks) % p),
        ("alpha", ev[:-1], ev[1:], up),
        ("beta", ev[1:], ev[:-1], 1),
        ("h1", od, od, (a + ks + 1) % p),
        ("h2", od, od, (b - ks + 1) % p),
        ("gamma", od, ev, 1),
        ("e14+e23", ev, od, (b - a - 2 * ks) % p),
        ("alpha", od[:-1], od[1:], up),
        ("e13", ev[:-1], od[1:], up),
        ("beta", od[1:], od[:-1], 1),
        ("e24", ev[1:], od[:-1], p - 1),
    ]


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
    t, bands = _kac_bands(p, a, b)
    n = t + 1
    m = GModule(
        algebra=g0,
        labels=_basis_labels("v", n),
        parity=(0,) * n,
        actions=_action_array(g0.labels, n, bands[:4]),  # v_k is 1*v_k, at index k
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
    t, bands = _kac_bands(p, a, b)
    km = KacModule(
        algebra=g,
        labels=_basis_labels("1*v", t + 1) + _basis_labels("g*v", t + 1),
        parity=(0,) * (t + 1) + (1,) * (t + 1),
        actions=_action_array(g.labels, 2 * (t + 1), bands),
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
    weights = m.weights
    if weights is None:
        raise ValueError("a Cartan element does not act diagonally on the module basis")
    return weights


def weight_decomposition(m: GModule) -> dict[Weight, Subspace]:
    """Group module basis vectors by their simultaneous Cartan eigenvalue pair."""
    return _weight_spaces(m.p, _module_weights(m))


def target_weight_space(m: GModule, w: Weight) -> Subspace:
    """The weight space at w by direct eigenvalue matching (any w permitted)."""
    return _matching_weight_space(m.p, _module_weights(m), w)


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
    rows = _case_table(p, a, b).get((residue(w[0], p), residue(w[1], p)))
    if rows is None:
        raise KeyError(f"{w} is not one of the seven root weights mod {p}")
    # unit rows at increasing indices (even before odd) are already canonical
    return Subspace(p, n, np.eye(n, dtype=np.int64)[rows])


def _case_table(p: int, a: int, b: int) -> dict[Weight, list[int]]:
    """Basis indices of K(a, b) spanning its weight space at each root weight, by case table."""
    t, x, s = residue(b - a, p), residue(b, p), residue(a + b, p)
    table = {}
    # the seven root weights stay distinct mod any odd prime
    for w, branches in zip(root_target_weights(p), _CASE_TABLE.values()):
        table[w] = []
        for parity, (off, cond, ab) in enumerate(branches):
            k = residue(b + off, p)
            if s == residue(ab, p) and _condition_holds(p, x, cond) and k <= t:
                table[w].append(_kac_index(t, parity, k))
    return table


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
        labels=_json_labels(data["labels"]),
        parity=tuple(_json_integers(data["parity"], "parity", 1).tolist()),
        actions=_json_integers(data["actions"], "actions", 3),
        highest_weight=None if lam is None else tuple(_json_integers(lam, "lambda", 1).tolist()),
    )
    m.validate()
    return m
