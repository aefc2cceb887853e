"""Dense references for the solver and the module builders, kept for the tests only.

The solver assembles the 64-pair derivation system as sparse entries, weight
block by weight block, and selects the weight-derivation coordinates by their
weight code.  These are the direct forms it replaced: the whole dense system,
and the coordinates whose module weight equals the root of their algebra
basis element, read off the public weight tables.  The Kac and simple
modules are written from closed-form index arrays; their references are the
loops over k that transcribe the action list one entry at a time.
"""

from functools import partial

import numpy as np

from ptilde2.cohomology import _sign
from ptilde2.modules import GModule, _kac_index, basis_module_weights, residue
from ptilde2.superalgebra import Superalgebra, basis_root_weights


def _weight_matched_columns(g: Superalgebra, m: GModule) -> np.ndarray:
    roots = np.array(basis_root_weights(g))
    wts = np.array(basis_module_weights(m))
    mask = np.all(wts[:, None, :] == roots[None, :, :], axis=2)
    return np.nonzero(mask.reshape(-1))[0]


def _derivation_system(g: Superalgebra, m: GModule, parity: int) -> np.ndarray:
    """Dense coefficient matrix of the identity over all 64 ordered pairs.

    Row (i * dim g + j) * dim M + r is module row r of the identity on the
    pair (i, j); column r * dim g + k is the flat coordinate phi(x_k)_r.
    """
    dm, dg, p = m.dim, g.dim, g.p
    acts = np.stack(m.actions)
    c = g.structure
    eye = np.eye(dm, dtype=np.int64)
    rows = np.zeros((dg * dg * dm, dm * dg), dtype=np.int64)
    blk = 0
    for i in range(dg):
        s1 = _sign(parity * g.parity[i])
        for j in range(dg):
            s2 = _sign(g.parity[j] * (parity + g.parity[i]))
            block = rows[blk * dm : (blk + 1) * dm]
            for k in np.nonzero(c[i, j])[0]:
                block[:, k::dg] += int(c[i, j, k]) * eye
            block[:, j::dg] -= s1 * acts[i]
            block[:, i::dg] += s2 * acts[j]
            blk += 1
    return np.mod(rows, p)


def kac_actions(g: Superalgebra, a: int, b: int) -> list[np.ndarray]:
    """The action matrices of K(a, b), one entry at a time, in the order of g.labels."""
    p = g.p
    a, b = residue(a, p), residue(b, p)
    t = residue(b - a, p)
    n = 2 * (t + 1)
    ev, od = (partial(_kac_index, t, parity) for parity in (0, 1))
    mats = {lab: np.zeros((n, n), dtype=np.int64) for lab in g.labels}
    for k in range(t + 1):
        mats["h1"][ev(k), ev(k)] = (a + k) % p
        mats["h1"][od(k), od(k)] = (a + k + 1) % p
        mats["h2"][ev(k), ev(k)] = (b - k) % p
        mats["h2"][od(k), od(k)] = (b - k + 1) % p
        mats["gamma"][od(k), ev(k)] = 1
        mats["e14+e23"][ev(k), od(k)] = (b - a - 2 * k) % p
        if k > 0:
            coeff = (k * (b - a - k + 1)) % p
            mats["alpha"][ev(k - 1), ev(k)] = coeff
            mats["alpha"][od(k - 1), od(k)] = coeff
            mats["e13"][ev(k - 1), od(k)] = coeff
        if k < t:
            mats["beta"][ev(k + 1), ev(k)] = 1
            mats["beta"][od(k + 1), od(k)] = 1
            mats["e24"][ev(k + 1), od(k)] = p - 1
    return [mats[label] for label in g.labels]


def simple_actions(g0: Superalgebra, a: int, b: int) -> list[np.ndarray]:
    """The action matrices of the simple g_0-module of weight (a, b), one entry at a time."""
    p = g0.p
    a, b = residue(a, p), residue(b, p)
    n = residue(b - a, p) + 1
    ks = np.arange(n, dtype=np.int64)
    mats = {
        "h1": np.diag((a + ks) % p),
        "h2": np.diag((b - ks) % p),
        "alpha": np.zeros((n, n), dtype=np.int64),
        "beta": np.zeros((n, n), dtype=np.int64),
    }
    for k in range(1, n):
        mats["alpha"][k - 1, k] = (k * (b - a - k + 1)) % p
    for k in range(n - 1):
        mats["beta"][k + 1, k] = 1
    return [mats[label] for label in g0.labels]
