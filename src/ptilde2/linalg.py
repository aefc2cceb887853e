"""Exact dense linear algebra over a prime field F_p.

Entries live in {0, ..., p-1} inside int64 numpy arrays; every operation is
pure integer arithmetic followed by reduction mod p (no floating point).
Echelon forms use deterministic pivoting (first nonzero entry in the smallest
column, smallest row index), so all bases, kernels and coset representatives
are reproducible bit for bit across runs and across worker processes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_odd_prime", "modular_inverse", "FpMatrix", "Subspace"]


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
    """Return p as an int after verifying it is an odd prime (trial division)."""
    q = int(p)
    if q != p or q < 3 or not _is_prime(q):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")
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


def _frozen_grid(p: int, data) -> np.ndarray:
    arr = np.mod(np.asarray(data, dtype=np.int64), p)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d entry grid, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _rref_in_place(a: np.ndarray, p: int) -> list[int]:
    """Reduce a (writable int64 array, entries mod p) to RREF; return pivot columns."""
    m, n = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if a[r, c] != 1:
            a[r] = (a[r] * modular_inverse(int(a[r, c]), p)) % p
        col = a[:, c].copy()
        col[r] = 0
        if np.any(col):
            a -= np.outer(col, a[r])
            a %= p
        pivots.append(c)
        r += 1
    return pivots


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
    def rows(self) -> int:
        return self.data.shape[0]

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

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_mod(other)
        return FpMatrix(self.p, self.data @ other.data)

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_mod(other)
        return FpMatrix(self.p, self.data + other.data)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_mod(other)
        return FpMatrix(self.p, self.data - other.data)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix(self.p, -self.data)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self.p, self.data * (int(c) % self.p))

    def _check_mod(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

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
        a = self.data.copy()
        pivots = _rref_in_place(a, self.p)
        n = self.cols
        free = [c for c in range(n) if c not in set(pivots)]
        if not free:
            return Subspace.zero(self.p, n)
        basis = np.zeros((len(free), n), dtype=np.int64)
        for row, f in enumerate(free):
            basis[row, f] = 1
            for r, c in enumerate(pivots):
                basis[row, c] = (-a[r, f]) % self.p
        return Subspace.from_spanning(self.p, n, basis)

    def solve(self, rhs) -> np.ndarray | None:
        """One solution of self @ x = rhs (free variables 0), or None if inconsistent."""
        b = np.mod(np.asarray(rhs, dtype=np.int64).reshape(-1), self.p)
        if b.size != self.rows:
            raise ValueError(f"rhs length {b.size} != rows {self.rows}")
        aug = np.concatenate([self.data, b[:, None]], axis=1)
        pivots = _rref_in_place(aug, self.p)
        n = self.cols
        if pivots and pivots[-1] == n:
            return None
        x = np.zeros(n, dtype=np.int64)
        for r, c in enumerate(pivots):
            x[c] = aug[r, n]
        return x

    def tolist(self) -> list[list[int]]:
        return self.data.tolist()


class Subspace:
    """A subspace of F_p^n held as a canonical reduced-echelon row basis.

    Two equal subspaces always carry identical bases, so == is subspace
    equality.  from_spanning canonicalizes any spanning set; the raw
    constructor accepts only a basis already in canonical form and raises
    ValueError otherwise.
    """

    __slots__ = ("p", "ambient_dim", "basis")

    def __init__(self, p: int, ambient_dim: int, basis):
        self.p = check_odd_prime(p)
        self.ambient_dim = int(ambient_dim)
        rows = np.asarray(basis, dtype=np.int64)
        shape = (0, self.ambient_dim) if rows.size == 0 else (-1, self.ambient_dim)
        self.basis = _frozen_grid(self.p, rows.reshape(shape))
        # canonical: leading entries 1 in strictly increasing columns, and each
        # pivot column a unit column (a zero row fails at its column-0 "pivot")
        if self.dim:
            pivots = (self.basis != 0).argmax(axis=1)
            unit = self.basis[:, pivots] == np.eye(self.dim, dtype=np.int64)
            if not (unit.all() and (pivots[1:] > pivots[:-1]).all()):
                raise ValueError("basis is not in canonical reduced row-echelon form")

    @classmethod
    def from_spanning(cls, p: int, ambient_dim: int, rows) -> "Subspace":
        """Canonicalize an arbitrary spanning set of row vectors."""
        a = np.mod(np.asarray(rows, dtype=np.int64).reshape(-1, ambient_dim), p).copy()
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

    def contains(self, v) -> bool:
        """Membership decided by elimination against the echelon basis."""
        w = np.mod(np.asarray(v, dtype=np.int64).reshape(-1), self.p)
        if w.size != self.ambient_dim:
            raise ValueError(f"vector length {w.size} != ambient {self.ambient_dim}")
        for row in self.basis:
            c = int(np.nonzero(row)[0][0])  # pivot column, entry 1
            if w[c]:
                w = (w - w[c] * row) % self.p
        return not np.any(w)

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
        return all(other.contains(row) for row in self.basis)
