"""Dense references for the derivation solver, kept for the tests only.

The solver assembles the 64-pair derivation system as sparse entries, weight
block by weight block, and selects the weight-derivation coordinates by their
weight code.  These are the direct forms it replaced: the whole dense system,
and the coordinates whose module weight equals the root of their algebra
basis element, read off the public weight tables.
"""

import numpy as np

from ptilde2.cohomology import _sign
from ptilde2.modules import GModule, basis_module_weights
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
