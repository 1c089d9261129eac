"""Lattice geometry and Fourier-represented periodic potentials.

A lattice is specified by d independent generators (rows of ``basis``).
The dual basis rows g_j satisfy <eta_i, g_j> = 2*pi*delta_ij, so dual
lattice vectors are integer combinations of the g_j and the centered
fundamental cell of the dual lattice serves as the Brillouin zone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LatticeError, PotentialError
from .grid import as_points

DUALITY_TOL = 1e-12


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of a d-dimensional lattice and its dual."""

    basis: np.ndarray        # (d, d), rows are the generators
    dual_basis: np.ndarray   # (d, d), rows g_j with <eta_i, g_j> = 2 pi delta_ij
    cell_volume: float

    @classmethod
    def from_basis(cls, basis) -> "LatticeSpec":
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise LatticeError(f"basis must be square (d, d), got shape {b.shape}")
        det = np.linalg.det(b)
        if abs(det) < 1e-12:
            raise LatticeError("basis vectors are linearly dependent")
        dual = 2.0 * np.pi * np.linalg.inv(b).T
        spec = cls(basis=b, dual_basis=dual, cell_volume=abs(det))
        spec.validate()
        return spec

    @classmethod
    def cubic(cls, dimension: int, period: float = 2.0 * np.pi) -> "LatticeSpec":
        if dimension < 1:
            raise LatticeError("dimension must be >= 1")
        return cls.from_basis(period * np.eye(dimension))

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def validate(self) -> None:
        gram = self.basis @ self.dual_basis.T
        target = 2.0 * np.pi * np.eye(self.dimension)
        if np.max(np.abs(gram - target)) > DUALITY_TOL * 2.0 * np.pi:
            raise LatticeError("dual basis fails <eta_i, g_j> = 2 pi delta_ij")
        if abs(self.cell_volume - abs(np.linalg.det(self.basis))) > 1e-9:
            raise LatticeError("cell volume inconsistent with basis determinant")

    def dual_vectors(self, indices: np.ndarray) -> np.ndarray:
        """Map integer multi-indices (..., d) to dual lattice vectors (..., d)."""
        return np.asarray(indices, dtype=float) @ self.dual_basis

    def fold(self, p) -> tuple[np.ndarray, np.ndarray]:
        """Fold p into the centered dual fundamental cell.

        Returns (p_folded, winding) with p = p_folded + winding @ dual_basis
        and fractional coordinates of p_folded in [-1/2, 1/2).
        """
        p = np.asarray(p, dtype=float)
        frac = np.linalg.solve(self.dual_basis.T, p)
        winding = np.floor(frac + 0.5).astype(int)
        folded = (frac - winding) @ self.dual_basis
        return folded, winding


@dataclass(frozen=True)
class FourierPotential:
    """Periodic potential given by finitely many Fourier coefficients.

    V(y) = sum_n vhat(n) exp(i <G_n, y>) with G_n = n @ dual_basis.
    Coefficients must be Hermitian-symmetric so that V is real-valued.
    """

    coeffs: tuple  # tuple of ((n_1, ..., n_d), complex) pairs, lex-sorted

    @classmethod
    def from_coeffs(cls, mapping) -> "FourierPotential":
        items = []
        for n, v in dict(mapping).items():
            key = tuple(int(c) for c in (n if isinstance(n, tuple) else (n,)))
            items.append((key, complex(v)))
        items.sort(key=lambda kv: kv[0])
        pot = cls(coeffs=tuple(items))
        pot.validate()
        return pot

    @classmethod
    def cosine(cls, dimension: int, amplitude: float = 1.0) -> "FourierPotential":
        """Sum over axes of amplitude * cos(y_j) for the 2*pi cubic lattice."""
        coeffs = {}
        for axis in range(dimension):
            for sign in (+1, -1):
                n = tuple(sign if j == axis else 0 for j in range(dimension))
                coeffs[n] = coeffs.get(n, 0.0) + 0.5 * amplitude
        return cls.from_coeffs(coeffs)

    @classmethod
    def zero(cls, dimension: int) -> "FourierPotential":
        return cls.from_coeffs({(0,) * dimension: 0.0})

    @property
    def dimension(self) -> int:
        return len(self.coeffs[0][0])

    @property
    def cutoff(self) -> int:
        return max(max(abs(c) for c in n) for n, _ in self.coeffs)

    @property
    def is_real_matrix(self) -> bool:
        """True when every coefficient is real, so every Bloch matrix is real."""
        return all(abs(v.imag) == 0.0 for _, v in self.coeffs)

    def validate(self) -> None:
        table = dict(self.coeffs)
        for n, v in self.coeffs:
            if len(n) != self.dimension:
                raise PotentialError("coefficient indices have mixed dimensions")
            neg = tuple(-c for c in n)
            if neg not in table:
                raise PotentialError(f"missing conjugate partner for index {n}")
            if abs(table[neg] - np.conj(v)) > 1e-12 * max(1.0, abs(v)):
                raise PotentialError(f"Hermitian symmetry violated at index {n}")

    def evaluate(self, lattice: LatticeSpec, points) -> np.ndarray:
        """Real values V(y) at points of shape (..., d) (or (...,) when d=1)."""
        pts = as_points(points, lattice.dimension)
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for n, v in self.coeffs:
            g = lattice.dual_vectors(np.asarray(n))
            out += v * np.exp(1j * (pts @ g))
        if np.max(np.abs(out.imag)) > 1e-10 * max(1.0, np.max(np.abs(out.real))):
            raise PotentialError("potential evaluates to a non-real field")
        return out.real
