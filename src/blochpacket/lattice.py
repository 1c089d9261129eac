"""The lattice (2 pi Z)^d and Fourier-represented periodic potentials.

Every run uses the cubic lattice Gamma = (2 pi Z)^d: a lattice of period L is
this one at eps' = L eps / 2 pi, with both potentials scaled by (L / 2 pi)^2
and time by 2 pi / L. Its dual lattice is Z^d, so the dual vector of an
integer index n is n itself, a quasimomentum is its own fractional
coordinates, and the first Brillouin zone is [-1/2, 1/2)^d. The lattice is
therefore never passed: d is the potential's, and the cell volume (2 pi)^d is
`bloch.cell_volume(d)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PotentialError
from .grid import as_points


@dataclass(frozen=True)
class LatticeSpec:
    """The lattice (2 pi Z)^d; it only folds momenta into the first zone."""

    dimension: int

    def fold(self, p) -> tuple[np.ndarray, np.ndarray]:
        """Fold p into the first zone: (p - winding, winding) with
        winding = floor(p + 1/2), so the folded p lies in [-1/2, 1/2)."""
        p = np.asarray(p, dtype=float)
        winding = np.floor(p + 0.5)
        return p - winding, winding.astype(int)


@dataclass(frozen=True)
class FourierPotential:
    """Periodic potential given by finitely many Fourier coefficients.

    V(y) = sum_n vhat(n) exp(i <n, y>) on the lattice (2 pi Z)^d.
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

    def evaluate(self, points) -> np.ndarray:
        """Real values V(y) at points of shape (..., d) (or (...,) when d=1)."""
        pts = as_points(points, self.dimension)
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for n, v in self.coeffs:
            out += v * np.exp(1j * (pts @ np.asarray(n, dtype=float)))
        if np.max(np.abs(out.imag)) > 1e-10 * max(1.0, np.max(np.abs(out.real))):
            raise PotentialError("potential evaluates to a non-real field")
        return out.real
