"""Finite-dimensional Lie superalgebras given by structure constants.

The central object is the 8-dimensional superalgebra of 4x4 supermatrices
(A B; C -A^T) in gl(2,2) with B symmetric and C antisymmetric, built over F_p
from its matrix realization.  The bracket convention is

    [x, y] = x y - (-1)^{|x||y|} y x     on homogeneous x, y,

adopted globally; structure constants are computed from matrix products, never
hand-entered, so the root table becomes a test instead of an input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import FpMatrix, Subspace, check_odd_prime

__all__ = [
    "Weight",
    "Violation",
    "Superalgebra",
    "P2_LABELS",
    "supermatrix_parity",
    "supercommutator",
    "p_tilde_2_matrices",
    "build_p_tilde_2",
    "grade_zero_subalgebra",
    "validate_superalgebra",
    "basis_root_weights",
    "root_decomposition",
    "superalgebra_to_json",
    "superalgebra_from_json",
]


class Weight(NamedTuple):
    """Eigenvalue pair (value on h1, value on h2), canonical residues mod p."""

    w1: int
    w2: int


class Violation(NamedTuple):
    kind: str
    indices: tuple


@dataclass(frozen=True, eq=False)
class Superalgebra:
    """Basis labels, parities, Z-grades, Cartan indices and the bracket tensor.

    structure[i, j, k] is the coefficient of basis k in [x_i, x_j]; all values
    are immutable after construction.  Axioms are checked by
    validate_superalgebra, not by the constructor.
    """

    p: int
    labels: tuple[str, ...]
    parity: tuple[int, ...]
    zgrade: tuple[int, ...]
    structure: np.ndarray  # (dim, dim, dim), entries reduced mod p
    cartan: tuple[int, ...]

    def __post_init__(self):
        check_odd_prime(self.p)
        arr = np.mod(np.asarray(self.structure, dtype=np.int64), self.p)
        n = len(self.labels)
        if arr.shape != (n, n, n):
            raise ValueError(f"structure tensor shape {arr.shape}, expected {(n, n, n)}")
        if len(self.parity) != n or len(self.zgrade) != n or not set(self.parity) <= {0, 1}:
            raise ValueError("need one parity in {0, 1} and one Z-grade per basis element")
        if len(self.cartan) != 2 or not all(0 <= c < n for c in self.cartan):
            raise ValueError(f"need two Cartan indices in range({n}), got {self.cartan}")
        arr.setflags(write=False)
        object.__setattr__(self, "structure", arr)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


# Fixed basis order: negative grade, then grade zero, then positive grade.
P2_LABELS = ("gamma", "h1", "h2", "alpha", "beta", "e13", "e24", "e14+e23")
P2_PARITY = (1, 0, 0, 0, 0, 1, 1, 1)
P2_ZGRADE = (-1, 0, 0, 0, 0, 1, 1, 1)
P2_CARTAN = (1, 2)

_EVEN_BLOCK = np.zeros((4, 4), dtype=bool)
_EVEN_BLOCK[:2, :2] = True
_EVEN_BLOCK[2:, 2:] = True


def supermatrix_parity(m: np.ndarray) -> int:
    """Z_2-degree of a homogeneous 4x4 supermatrix in gl(2,2); 0 for the zero matrix."""
    nz = np.asarray(m) != 0
    even = bool(np.any(nz & _EVEN_BLOCK))
    odd = bool(np.any(nz & ~_EVEN_BLOCK))
    if even and odd:
        raise ValueError("supermatrix is not homogeneous")
    return 1 if odd else 0


def supercommutator(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """[x, y] = xy - (-1)^{|x||y|} yx for homogeneous 4x4 supermatrices mod p."""
    x = np.mod(np.asarray(x, dtype=np.int64), p)
    y = np.mod(np.asarray(y, dtype=np.int64), p)
    sign = -1 if supermatrix_parity(x) and supermatrix_parity(y) else 1
    return (x @ y - sign * (y @ x)) % p


def _e(i: int, j: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=np.int64)
    m[i - 1, j - 1] = 1
    return m


def p_tilde_2_matrices(p: int) -> dict[str, np.ndarray]:
    """The realizing 4x4 matrices of the fixed basis, entries mod p."""
    check_odd_prime(p)
    mats = {
        "gamma": _e(4, 1) - _e(3, 2),
        "h1": _e(3, 3) - _e(1, 1),
        "h2": _e(4, 4) - _e(2, 2),
        "alpha": _e(4, 3) - _e(1, 2),
        "beta": _e(3, 4) - _e(2, 1),
        "e13": _e(1, 3),
        "e24": _e(2, 4),
        "e14+e23": _e(1, 4) + _e(2, 3),
    }
    return {k: np.mod(v, p) for k, v in mats.items()}


def build_p_tilde_2(p: int) -> Superalgebra:
    """Construct the 8-dimensional superalgebra over F_p from its matrix realization.

    Structure constants come from supercommutators of the realizing matrices
    followed by coordinate extraction; the result is validated against all
    superalgebra axioms before being returned.
    """
    p = check_odd_prime(p)
    mats = p_tilde_2_matrices(p)
    basis = [mats[label] for label in P2_LABELS]
    # columns = flattened basis matrices, then the 64 brackets; one RREF
    # solves them all, and the coordinates are the unique solutions
    n = len(basis)
    span = np.stack([m.reshape(-1) for m in basis], axis=1)
    brackets = [supercommutator(x, y, p).reshape(-1) for x in basis for y in basis]
    reduced, rank = FpMatrix(p, np.column_stack([span] + brackets)).rref()
    solved = reduced.data[:n, :n]
    if rank != n or not np.array_equal(solved, np.eye(n, dtype=np.int64)):
        raise RuntimeError("a bracket of basis elements left the span")
    structure = reduced.data[:n, n:].T.reshape(n, n, n).copy()
    g = Superalgebra(
        p=p,
        labels=P2_LABELS,
        parity=P2_PARITY,
        zgrade=P2_ZGRADE,
        structure=structure,
        cartan=P2_CARTAN,
    )
    report = validate_superalgebra(g)
    if report:
        raise RuntimeError(f"matrix realization failed validation: {report[:3]}")
    return g


def grade_zero_subalgebra(g: Superalgebra) -> Superalgebra:
    """Restrict to the Z-grade-0 part (closed under the bracket by grading)."""
    idx = [i for i in range(g.dim) if g.zgrade[i] == 0]
    sub = g.structure[np.ix_(idx, idx, idx)]
    pos = {old: new for new, old in enumerate(idx)}
    return Superalgebra(
        p=g.p,
        labels=tuple(g.labels[i] for i in idx),
        parity=tuple(g.parity[i] for i in idx),
        zgrade=tuple(0 for _ in idx),
        structure=sub,
        cartan=tuple(pos[c] for c in g.cartan),
    )


def validate_superalgebra(g: Superalgebra) -> list[Violation]:
    """Check all superalgebra axioms; failures are returned as data, never raised.

    Checks: super skew-symmetry, parity compatibility, Z-grading compatibility,
    the super Jacobi identity over all basis triples, and that Cartan elements
    are even and commute.
    """
    c = g.structure
    p = g.p
    par = np.asarray(g.parity, dtype=np.int64)
    sign = np.where((par[:, None] * par[None, :]) % 2 == 1, -1, 1).astype(np.int64)
    out: list[Violation] = []

    skew = (c + sign[:, :, None] * c.transpose(1, 0, 2)) % p
    for i, j in zip(*np.nonzero(skew.any(axis=2))):
        out.append(Violation("skew", (int(i), int(j))))

    nz = c != 0
    par_target = (par[:, None] + par[None, :]) % 2
    for i, j, k in zip(*np.nonzero(nz)):
        if g.parity[k] != par_target[i, j]:
            out.append(Violation("parity", (int(i), int(j), int(k))))
        if g.zgrade[k] != g.zgrade[i] + g.zgrade[j]:
            out.append(Violation("grading", (int(i), int(j), int(k))))

    lhs = np.einsum("jlm,imk->ijlk", c, c)
    rhs1 = np.einsum("ijm,mlk->ijlk", c, c)
    rhs2 = np.einsum("ilm,jmk->ijlk", c, c) * sign[:, :, None, None]
    jac = (lhs - rhs1 - rhs2) % p
    for i, j, l in zip(*np.nonzero(jac.any(axis=3))):
        out.append(Violation("jacobi", (int(i), int(j), int(l))))

    for ci in g.cartan:
        if g.parity[ci] != 0:
            out.append(Violation("cartan_parity", (int(ci),)))
        for cj in g.cartan:
            if np.any(c[ci, cj]):
                out.append(Violation("cartan_commute", (int(ci), int(cj))))
    return out


def _diagonal_weights(g: Superalgebra, mats) -> np.ndarray | None:
    """Cartan eigenvalues of each basis vector, one (h1, h2) row per vector.

    mats[i] is the matrix of basis element i on the basis (ad, or a module
    action); any orientation works, since only the Cartan diagonals are read.
    Returns None when some Cartan matrix is not diagonal on the basis.
    """
    if len(g.cartan) != 2:
        raise ValueError("expected a rank-2 Cartan index set")
    blocks = np.stack([np.asarray(mats[c]) for c in g.cartan])
    diags = np.diagonal(blocks, axis1=1, axis2=2)
    # any nonzero beyond those on the diagonals sits off the diagonal
    if np.count_nonzero(blocks) != np.count_nonzero(diags):
        return None
    return diags.T.copy()


def _weight_spaces(p: int, weights: np.ndarray) -> dict[Weight, Subspace]:
    """Span of the basis vectors of each weight; sorted unit rows are canonical."""
    eye = np.eye(len(weights), dtype=np.int64)
    groups: dict[Weight, list[int]] = {}
    for r, w in enumerate(weights.tolist()):
        groups.setdefault(Weight(*w), []).append(r)
    return {w: Subspace(p, len(weights), eye[idx]) for w, idx in groups.items()}


def basis_root_weights(g: Superalgebra) -> list[Weight]:
    """Weight of each basis vector under ad of the Cartan pair.

    Requires ad(h) diagonal on the chosen basis for every Cartan element h;
    raises otherwise.
    """
    weights = _diagonal_weights(g, g.structure)
    if weights is None:
        raise ValueError("ad of a Cartan element is not diagonal on the basis")
    return [Weight(*w) for w in weights.tolist()]


def root_decomposition(g: Superalgebra) -> dict[Weight, Subspace]:
    """Group basis vectors by their simultaneous ad-eigenvalue pair."""
    return _weight_spaces(g.p, np.array(basis_root_weights(g)))


def superalgebra_to_json(g: Superalgebra) -> dict:
    return {
        "p": g.p,
        "labels": list(g.labels),
        "parity": list(g.parity),
        "zgrade": list(g.zgrade),
        "structure": g.structure.tolist(),
        "cartan": list(g.cartan),
    }


def _json_integers(value, field: str, ndim: int) -> np.ndarray:
    """An int64 array with ndim axes from nested lists of JSON integers, or from
    an integer array; a float, string, boolean or out-of-range entry raises
    ValueError rather than being truncated, coerced or overflowing."""
    arr = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    exact = arr.dtype.kind in "iu" or all(type(x) is int and abs(x) < 2**63 for x in arr.flat)
    if arr.ndim != ndim or not exact:
        raise ValueError(f"{field} must be integers in {ndim} axes, each of size below 2**63")
    return arr.astype(np.int64)


def superalgebra_from_json(data: dict) -> Superalgebra:
    """Rebuild from the JSON dict; all axioms are re-validated on import."""
    g = Superalgebra(
        p=int(_json_integers(data["p"], "p", 0)),
        labels=tuple(data["labels"]),
        parity=tuple(_json_integers(data["parity"], "parity", 1).tolist()),
        zgrade=tuple(_json_integers(data["zgrade"], "zgrade", 1).tolist()),
        structure=_json_integers(data["structure"], "structure", 3),
        cartan=tuple(_json_integers(data["cartan"], "cartan", 1).tolist()),
    )
    report = validate_superalgebra(g)
    if report:
        raise ValueError(f"imported structure constants violate the axioms: {report[:5]}")
    return g
