"""Exact dense linear algebra over a prime field F_p.

Entries live in {0, ..., p-1} inside int64 numpy arrays; every operation is
pure integer arithmetic followed by reduction mod p (no floating point).
Echelon forms use deterministic pivoting (first nonzero entry in the smallest
column, smallest row index), so all bases, kernels and coset representatives
are reproducible bit for bit across runs and across worker processes.

Kernels come from one elimination: the matrix is row-reduced with its columns
in reverse order, and each free column f then carries the kernel vector with
1 at f and minus the reduced entries at the pivot columns, all of which lie
right of f in the original order.  Those vectors are already the canonical
reduced basis.  _rref_batched applies the same elimination, column by column,
to a whole stack of small zero-padded matrices at once, which is how the
cohomology solver reduces all its weight blocks together; at each column it
updates only the (matrix, row) pairs the pivot column hits.  The
single-matrix RREF pays only for nonzeros too: it keeps the columns that
hold one, finds each next pivot from the rows' leading columns, and updates
only the rows with a nonzero in the pivot column.  Membership is a
residual: w lies in the span of a canonical basis B with pivot columns P
exactly when w - w[P] B = 0.  A Subspace finds P once, in its canonical
check, and the product takes only the basis rows whose coefficient w[P_k]
is nonzero, so it pays for the basis rows the input uses, and callers pass
rows that use few (h1 passes WDer's).  Stored grids are read-only copies,
reduced mod p only when an entry lies outside [0, p).

The modulus is bounded by MAX_MODULUS = 2^16, so a product of two residues is
below 2^32 and any sum of fewer than 2^31 such products stays below 2^63:
every int64 matrix product and accumulation here is exact.  A residual
column sums at most dim B < 2^31 terms, each below p^2 < 2^32, so it is
exact too.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["check_odd_prime", "modular_inverse", "FpMatrix", "Subspace"]

MAX_MODULUS = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_odd_prime(p) -> int:
    """Return p as an int after verifying it is an odd prime below MAX_MODULUS."""
    q = int(p)
    if q != p or q < 3 or q >= MAX_MODULUS or not _is_prime(q):
        raise ValueError(f"modulus must be an odd prime with 3 <= p < {MAX_MODULUS}, got {p!r}")
    return q


def modular_inverse(a: int, p: int) -> int:
    """Inverse of a modulo p by the extended Euclidean algorithm."""
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    r0, r1, s0, s1 = p, a, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return s0 % p


@functools.lru_cache(maxsize=16)
def _inverse_table(p: int) -> np.ndarray:
    """Read-only table of modular_inverse(a, p) at index a, with 0 at index 0."""
    table = np.zeros(p, dtype=np.int64)
    table[1:] = [modular_inverse(a, p) for a in range(1, p)]
    table.setflags(write=False)
    return table


def _frozen_grid(p: int, data) -> np.ndarray:
    """A read-only copy of data mod p, reduced only when an entry lies outside [0, p)."""
    arr = np.array(data, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d entry grid, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= p):
        np.mod(arr, p, out=arr)
    arr.setflags(write=False)
    return arr


def _rref_in_place(a: np.ndarray, p: int) -> list[int]:
    """Reduce a (writable int64 array, entries mod p) to RREF; return pivot columns.

    Only the columns with a nonzero entry are kept: row operations never
    leave the union of the rows' supports, so every other column stays zero.
    Each unreduced row tracks its leading column, so the loop visits the
    pivot columns alone, and at each pivot only the rows with a nonzero in
    the pivot column change.
    """
    m = a.shape[0]
    cols = a.any(axis=0).nonzero()[0]
    width = cols.size
    if width == 0:
        return []
    sub = a[:, cols]
    inverse = _inverse_table(p)
    lead = _leading_columns(sub, width)
    pivots = []
    for r in range(m):
        rest = lead[r:]
        c = rest.min()
        if c == width:
            break
        i = r + (rest == c).argmax()
        if i != r:
            sub[[r, i]] = sub[[i, r]]
            lead[[r, i]] = lead[[i, r]]
        row = sub[r]
        if row[c] != 1:
            row *= inverse[row[c]]
            row %= p
        hit = sub[:, c].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            sub[hit] = (sub[hit] - sub[hit, c, None] * row) % p
            below = hit[hit > r]
            if below.size:
                lead[below] = _leading_columns(sub[below], width)
        pivots.append(c)
    a[:, cols] = sub
    return cols[pivots].tolist()


def _leading_columns(rows: np.ndarray, width: int) -> np.ndarray:
    """Column of the first nonzero of each row, or width for a zero row."""
    nonzero = rows != 0
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), width)


def _rref_batched(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce every slice a[b] of a (blocks, rows, cols) stack to RREF in place.

    Each slice gets exactly the pivot rule of _rref_in_place; one loop over
    the columns serves all slices and changes only the rows each column hits.
    Returns the (blocks, cols) pivot mask.
    """
    nb, m, n = a.shape
    pivot = np.zeros((nb, n), dtype=bool)
    rank = np.zeros(nb, dtype=np.int64)
    row_ids = np.arange(m)
    inverse = _inverse_table(p)
    for c in range(n):
        candidate = (a[:, :, c] != 0) & (row_ids >= rank[:, None])
        live = np.nonzero(candidate.any(axis=1))[0]
        if live.size == 0:
            continue
        src = candidate[live].argmax(axis=1)
        dst = rank[live]
        top = a[live, src]
        a[live, src] = a[live, dst]
        top = top * inverse[top[:, c]][:, None] % p
        a[live, dst] = top
        k, r = np.nonzero(a[live, :, c])
        hit = r != dst[k]
        k, r = k[hit], r[hit]
        b = live[k]
        a[b, r] = (a[b, r] - a[b, r, c, None] * top[k]) % p
        pivot[live, c] = True
        rank[live] += 1
    return pivot


def _reversed_kernels(
    a: np.ndarray, pivot: np.ndarray, width: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel vectors of reduced slices whose columns are in reverse order.

    a is a (blocks, rows, cols) stack in RREF with pivot mask pivot; slice b
    uses its first width[b] columns.  Returns (block, free column, vectors):
    one vector per free column f, with 1 at f and -a[b, r, f] at the pivot
    column of each row r, in the slice's reversed coordinates.
    """
    nb, m, n = a.shape
    free_b, free_c = np.nonzero(~pivot & (np.arange(n) < width[:, None]))
    piv_b, piv_c = np.nonzero(pivot)
    # column of each pivot row; rows without a pivot point past the end
    row_pivot = np.full((nb, m), n)
    row_pivot[piv_b, np.cumsum(pivot, axis=1)[piv_b, piv_c] - 1] = piv_c
    k = np.arange(free_b.size)
    out = np.zeros((free_b.size, n + 1), dtype=np.int64)
    out[k[:, None], row_pivot[free_b]] = -a[free_b, :, free_c] % p
    out[k, free_c] = 1
    return free_b, free_c, out[:, :n]


class FpMatrix:
    """Immutable dense matrix over F_p."""

    __slots__ = ("p", "data")

    def __init__(self, p, data):
        self.p = check_odd_prime(p)
        self.data = _frozen_grid(self.p, data)

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.data.tolist()})"

    def rref(self) -> tuple["FpMatrix", int]:
        """Reduced row-echelon form and rank, with deterministic pivoting."""
        a = self.data.copy()
        pivots = _rref_in_place(a, self.p)
        return FpMatrix(self.p, a), len(pivots)

    def rank(self) -> int:
        a = self.data.copy()
        return len(_rref_in_place(a, self.p))

    def nullspace(self) -> "Subspace":
        """Canonical basis of the right kernel {x : self @ x = 0}."""
        n = self.cols
        a = self.data[:, ::-1].copy()
        pivot = np.zeros((1, n), dtype=bool)
        pivot[0, _rref_in_place(a, self.p)] = True
        _, _, vectors = _reversed_kernels(a[None], pivot, np.array([n]), self.p)
        # back to the original column order; leading columns then ascend
        return Subspace(self.p, n, vectors[::-1, ::-1])

    def tolist(self) -> list[list[int]]:
        return self.data.tolist()


def _row_grid(rows, n: int) -> np.ndarray:
    """rows as a 2-D int64 grid of width n: empty, one n-vector, or n-wide rows."""
    grid = np.asarray(rows, dtype=np.int64)
    if grid.size == 0:
        return grid.reshape(0, n)
    if grid.shape == (n,):
        return grid.reshape(1, n)
    if grid.ndim != 2 or grid.shape[1] != n:
        raise ValueError(f"expected rows of width {n}, got an array of shape {grid.shape}")
    return grid


class Subspace:
    """A subspace of F_p^n held as a canonical reduced-echelon row basis.

    Two equal subspaces always carry identical bases, so == is subspace
    equality.  from_spanning canonicalizes any spanning set; the raw
    constructor accepts only a basis already in canonical form and raises
    ValueError otherwise.  pivots is the read-only array of leading columns.
    """

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    def __init__(self, p: int, ambient_dim: int, basis):
        self.p = check_odd_prime(p)
        self.ambient_dim = int(ambient_dim)
        self.basis = _frozen_grid(self.p, _row_grid(basis, self.ambient_dim))
        # canonical: leading entries 1 in strictly increasing columns, and each
        # pivot column a unit column (a zero row fails at its column-0 "pivot")
        pivots = (self.basis != 0).argmax(axis=1) if self.dim else np.zeros(0, dtype=np.int64)
        if self.dim:
            unit = self.basis[:, pivots] == np.eye(self.dim, dtype=np.int64)
            if not (unit.all() and (pivots[1:] > pivots[:-1]).all()):
                raise ValueError("basis is not in canonical reduced row-echelon form")
        pivots.setflags(write=False)
        self.pivots = pivots

    @classmethod
    def from_spanning(cls, p: int, ambient_dim: int, rows) -> "Subspace":
        """Canonicalize an arbitrary spanning set of row vectors."""
        a = np.mod(_row_grid(rows, ambient_dim), p)
        pivots = _rref_in_place(a, p)
        return cls(p, ambient_dim, a[: len(pivots)])

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls(p, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64))

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls(p, ambient_dim, np.eye(ambient_dim, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim} of {self.ambient_dim})"

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"subspace mismatch: F_{self.p}^{self.ambient_dim} vs "
                f"F_{other.p}^{other.ambient_dim}"
            )

    def _residual(self, rows: np.ndarray) -> np.ndarray:
        """rows - rows[:, P] @ basis mod p, P the pivot columns (rows reduced mod p).

        Row i of the result is zero exactly when rows[i] lies in the span.  The
        product takes only the basis rows whose coefficient rows[:, P_k] is
        nonzero in some row, so it costs rows x used rows x n.
        """
        if not (self.dim and rows.size):
            return rows.copy()
        coef = rows[:, self.pivots]
        used = coef.any(axis=0)
        return (rows - coef[:, used] @ self.basis[used]) % self.p

    def contains(self, v) -> bool:
        """Membership decided by the residual against the echelon basis."""
        w = np.mod(np.asarray(v, dtype=np.int64).reshape(-1), self.p)
        if w.size != self.ambient_dim:
            raise ValueError(f"vector length {w.size} != ambient {self.ambient_dim}")
        return not self._residual(w[None, :]).any()

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        stacked = np.concatenate([self.basis, other.basis], axis=0)
        return Subspace.from_spanning(self.p, self.ambient_dim, stacked)

    def complement(self) -> "Subspace":
        """Orthogonal complement w.r.t. the standard dot product on F_p^n."""
        return FpMatrix(self.p, self.basis).nullspace()

    def intersection(self, other: "Subspace") -> "Subspace":
        # (A + B)^perp = A^perp  cap  B^perp, applied to the complements
        self._check_compatible(other)
        return (self.complement() + other.complement()).complement()

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return not other._residual(self.basis).any()
