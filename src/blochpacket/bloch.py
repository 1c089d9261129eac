"""Plane-wave Bloch eigenproblem: bands, cell functions, k-derivatives.

The fiber Hamiltonian at quasimomentum k acts on cell-periodic functions as
0.5 * (-i grad_y + k)^2 + V(y). In the plane-wave basis e_n = exp(i<G_n, y>)
(indices |n|_inf <= cutoff, lexicographic order) it is dense Hermitian with
kinetic diagonal 0.5 * |G_n + k|^2 and potential entries vhat(n - n').

Eigenvector coefficients are stored in the "cell" scaling c_n, normalized so
that |Y| * sum |c_n|^2 = 1, i.e. the cell function has unit L^2(Y) norm.
Inner products over the cell in this scaling are |Y| * sum conj(a) b.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateBandError, EigensolverError, GaugeError
from .grid import as_points
from .lattice import FourierPotential, LatticeSpec

EIG_RESIDUAL_TOL = 1e-9
GAP_TOL_RELATIVE = 1e-8
ORTHO_TOL = 1e-12
ANCHOR_FLOOR = 1e-3  # smallest |psi_k(y0)| (unit-norm coefficients) the gauge accepts
ANCHOR_SAMPLES = 16  # cell points per axis searched for the anchor point
MOMENTUM_QUANTUM = 1e-12  # cache key resolution for quasimomenta


@functools.lru_cache(maxsize=None)
def pw_indices(dimension: int, cutoff: int) -> np.ndarray:
    """Integer multi-indices |n|_inf <= cutoff in lexicographic order, (M, d)."""
    axes = [np.arange(-cutoff, cutoff + 1)] * dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class BlochEigenpair:
    """One Bloch band value and anchored cell function at one k."""

    k: np.ndarray            # quasimomentum, possibly outside the first zone
    m: int                   # band index, 1-based, bands sorted ascending
    energy: float
    coeffs: np.ndarray       # cell-scaled plane-wave coefficients, lex order
    cutoff: int
    lattice: LatticeSpec

    @property
    def dimension(self) -> int:
        return self.lattice.dimension

    def unit_coeffs(self) -> np.ndarray:
        """Coefficients in the orthonormal-basis scaling (unit 2-norm)."""
        return self.coeffs * np.sqrt(self.lattice.cell_volume)


@dataclass(frozen=True)
class BandDerivatives:
    """First and second k-derivatives of one band at one k."""

    grad: np.ndarray       # (d,) gradient of the band energy
    hess: np.ndarray       # (d, d) symmetric Hessian of the band energy
    dk_coeffs: np.ndarray  # (d, M) cell-scaled coefficients of d_k(cell function)
    berry: np.ndarray      # (d,) purely imaginary <chi, d_k chi> in the anchored gauge


def cell_inner(lattice: LatticeSpec, a: np.ndarray, b: np.ndarray) -> complex:
    """L^2(Y) inner product of cell functions given cell-scaled coefficients."""
    return lattice.cell_volume * complex(np.vdot(a, b))


def build_bloch_hamiltonian(
    lattice: LatticeSpec,
    potential: FourierPotential,
    k,
    cutoff: int,
) -> np.ndarray:
    """Dense fiber Hamiltonian in the plane-wave basis at quasimomentum k."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    d = lattice.dimension
    if k.shape != (d,):
        raise EigensolverError(f"quasimomentum shape {k.shape} != ({d},)")
    if not np.all(np.isfinite(k)):
        raise EigensolverError("quasimomentum must be finite")
    if cutoff < potential.cutoff:
        raise EigensolverError(
            f"cutoff {cutoff} below potential support {potential.cutoff}"
        )
    n = pw_indices(d, cutoff)
    g = lattice.dual_vectors(n)
    kinetic = 0.5 * np.sum((g + k) ** 2, axis=1)

    # Dense cube of coefficients over index differences, fancy-indexed below.
    width = 4 * cutoff + 1
    cube = np.zeros((width,) * d, dtype=complex)
    for idx, v in potential.coeffs:
        cube[tuple(c + 2 * cutoff for c in idx)] = v
    diff = n[:, None, :] - n[None, :, :] + 2 * cutoff
    h = cube[tuple(diff[..., j] for j in range(d))]
    if potential.is_real_matrix:
        h = h.real.copy()
    h[np.diag_indices_from(h)] += kinetic
    return h


@functools.lru_cache(maxsize=None)
def _anchor_point(basis: tuple, potential: FourierPotential, m: int, cutoff: int) -> np.ndarray:
    """Cell point y0 at which band m's Bloch waves are anchored.

    At the zone corners k in {0, b/2}^d the Bloch waves are real and vanish
    somewhere; y0 is the point of an ANCHOR_SAMPLES^d cell grid maximizing
    the smallest |chi_k(y0)| / max |chi_k| over the corners.
    """
    lattice = LatticeSpec.from_basis(basis)
    d = lattice.dimension
    fracs = np.arange(ANCHOR_SAMPLES) / ANCHOR_SAMPLES
    points = np.array(list(itertools.product(fracs, repeat=d))) @ lattice.basis
    worst = np.full(points.shape[0], np.inf)
    for corner in itertools.product((0.0, 0.5), repeat=d):
        k = np.asarray(corner) @ lattice.dual_basis
        h = build_bloch_hamiltonian(lattice, potential, k, cutoff)
        vec = np.linalg.eigh(h)[1][:, m - 1]
        values = np.abs(evaluate_cell_coeffs(lattice, cutoff, vec, points))
        worst = np.minimum(worst, values / values.max())
    return points[int(np.argmax(worst))]


def _check_isolated(evals: np.ndarray, m: int) -> None:
    """Raise unless band m (1-based) is apart from its neighbors at the same k."""
    others = np.delete(evals, m - 1)
    gap = float(np.min(np.abs(others - evals[m - 1])))
    scale = max(float(evals[-1] - evals[0]), 1.0)
    if gap < GAP_TOL_RELATIVE * scale:
        raise DegenerateBandError(
            f"band {m} gap {gap:.3e} below {GAP_TOL_RELATIVE:.1e} * {scale:.3e}"
        )


def reduced_resolvent_solve(
    h: np.ndarray, energy: float, chi_unit: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve (H - E) x = P_perp rhs subject to <chi, x> = 0.

    Uses the bordered system [[H - E, chi], [chi^*, 0]] which is nonsingular
    exactly when the band is simple.
    """
    dim = h.shape[0]
    bordered = np.zeros((dim + 1, dim + 1), dtype=complex)
    bordered[:dim, :dim] = h - energy * np.eye(dim)
    bordered[:dim, dim] = chi_unit
    bordered[dim, :dim] = np.conj(chi_unit)
    rhs_perp = rhs - chi_unit * np.vdot(chi_unit, rhs)
    full = np.concatenate([rhs_perp, [0.0]])
    try:
        sol = np.linalg.solve(bordered, full)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"reduced-resolvent solve failed: {exc}") from exc
    x = sol[:dim]
    residual = np.linalg.norm((h - energy * np.eye(dim)) @ x - rhs_perp)
    if residual > 1e-8 * max(1.0, np.linalg.norm(rhs_perp)):
        raise EigensolverError(f"reduced-resolvent residual {residual:.3e}")
    if abs(np.vdot(chi_unit, x)) > ORTHO_TOL:
        raise EigensolverError("reduced-resolvent solution not orthogonal")
    return x


def band_derivatives(
    lattice: LatticeSpec,
    potential: FourierPotential,
    k,
    m: int,
    cutoff: int,
) -> tuple[BlochEigenpair, BandDerivatives]:
    """Eigenpair plus grad/Hessian/k-derivative data for one simple band.

    The cell function is in the anchored gauge: its phase makes the Bloch
    wave psi_k(y0) = sum_n c_n exp(i <G_n + k, y0>) real and positive at the
    anchor point y0 of `_anchor_point`. psi_k and psi_{k+G} are the same
    function, so chi(k + G) = exp(-i <G, y>) chi(k) exactly, and the gauge is
    smooth wherever psi_k(y0) != 0 (in 1D, the whole zone interior).

    The gradient is the velocity expectation <chi, (-i grad_y + k) chi>. The
    coefficient derivative combines the reduced-resolvent solution x_j (the
    component orthogonal to chi) with the phase rate of the anchored gauge;
    the latter is also returned as the purely imaginary connection vector.
    """
    d = lattice.dimension
    k = np.atleast_1d(np.asarray(k, dtype=float))
    h = build_bloch_hamiltonian(lattice, potential, k, cutoff)
    if not 1 <= m <= h.shape[0]:
        raise EigensolverError(f"band index {m} outside [1, {h.shape[0]}]")
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolve failed: {exc}") from exc
    _check_isolated(evals, m)
    vec = evecs[:, m - 1].astype(complex)
    residual = np.linalg.norm(h @ vec - evals[m - 1] * vec)
    if residual > EIG_RESIDUAL_TOL:
        raise EigensolverError(f"eigen-residual {residual:.3e} for band {m}")
    n = pw_indices(d, cutoff)
    g_plus_k = lattice.dual_vectors(n) + k
    y0 = _anchor_point(tuple(map(tuple, lattice.basis.tolist())), potential, m, cutoff)
    row = np.exp(1j * (g_plus_k @ y0))
    anchor = complex(row @ vec)
    if abs(anchor) < ANCHOR_FLOOR:
        raise GaugeError(
            f"Bloch wave at the anchor point has modulus {abs(anchor):.3e}"
            f" below {ANCHOR_FLOOR:.0e} at k = {k}"
        )
    a = vec * (np.conj(anchor) / abs(anchor))
    pair = BlochEigenpair(
        k=k,
        m=m,
        energy=float(evals[m - 1]),
        coeffs=a / np.sqrt(lattice.cell_volume),
        cutoff=cutoff,
        lattice=lattice,
    )
    grad = (np.abs(a) ** 2) @ g_plus_k

    xs = np.array(
        [reduced_resolvent_solve(h, pair.energy, a, -(g_plus_k[:, j] * a)) for j in range(d)]
    )
    # Hess E_jl = delta_jl + <a, (G + k)_j x_l> + <a, (G + k)_l x_j>
    terms = (np.conj(a) * g_plus_k.T) @ xs.T
    terms = terms + terms.T
    if np.any(np.abs(terms.imag) > 1e-9 * np.maximum(1.0, np.abs(terms.real))):
        raise EigensolverError("Hessian assembly produced imaginary part")
    hess = np.eye(d) + terms.real

    # Phase rate of the anchored gauge: differentiating Im psi_k(y0) = 0 with
    # d_k row = i y0 row and psi_k(y0) = |anchor| gives
    # alpha_j = -y0_j - Im(row @ x_j) / |anchor|.
    alphas = -y0 - (xs @ row).imag / abs(anchor)
    dk = (xs + 1j * alphas[:, None] * a) / np.sqrt(lattice.cell_volume)
    return pair, BandDerivatives(grad=grad, hess=hess, dk_coeffs=dk, berry=1j * alphas)


def evaluate_cell_coeffs(lattice, cutoff: int, coeffs: np.ndarray, points) -> np.ndarray:
    """Values of sum_n c_n exp(i <G_n, y>) at points (..., d) for any c.

    Coefficient columns (M, R) give R cell functions at once, on a
    trailing axis of the result.
    """
    d = lattice.dimension
    g = lattice.dual_vectors(pw_indices(d, cutoff))
    return np.exp(1j * (as_points(points, d) @ g.T)) @ coeffs


def _shift_coeffs(coeffs: np.ndarray, winding: np.ndarray, dimension: int, cutoff: int) -> np.ndarray:
    """Coefficients of exp(-i <G_w, y>) * chi given those of chi, on the
    last axis.

    Re-indexes c'_n = c_{n + w}; entries pushed past the cutoff box are
    dropped (they sit in the spectral tail for converged cutoffs).
    """
    w = np.asarray(winding, dtype=int)
    if not np.any(w):
        return coeffs
    side = 2 * cutoff + 1
    src = coeffs.reshape(coeffs.shape[:-1] + (side,) * dimension)
    dst = np.zeros_like(src)
    src_slices, dst_slices = [...], [...]
    for ax in range(dimension):
        shift = int(w[ax])
        lo = max(0, shift)
        hi = min(side, side + shift)
        src_slices.append(slice(lo, hi))
        dst_slices.append(slice(lo - shift, hi - shift))
    dst[tuple(dst_slices)] = src[tuple(src_slices)]
    return dst.reshape(coeffs.shape)


class BlochBand:
    """Memoized spectral data for one band of one periodic potential.

    Quasimomenta are folded into the first zone for the eigensolve; cell
    functions at unfolded momenta are recovered by the exact integer
    re-indexing chi(k + G_w) = exp(-i <G_w, y>) chi(k). Band energy and its
    k-derivatives are periodic, so they are served from the folded cache
    directly. The cache is keyed on the folded momentum quantized at 1e-12;
    instances are safe for concurrent reads once warmed, and a single
    trajectory integration should own its instance while writing.
    """

    def __init__(
        self,
        lattice: LatticeSpec,
        potential: FourierPotential,
        m: int,
        cutoff: int | None = None,
    ):
        if cutoff is None:
            cutoff = default_cutoff(lattice.dimension)
        if m < 1:
            raise EigensolverError(f"band index {m} must be at least 1")
        self.lattice = lattice
        self.potential = potential
        self.m = int(m)
        self.cutoff = int(cutoff)
        self._cache: dict[tuple, tuple[BlochEigenpair, BandDerivatives]] = {}

    @property
    def dimension(self) -> int:
        return self.lattice.dimension

    def _folded(self, p) -> tuple[np.ndarray, np.ndarray, tuple]:
        folded, winding = self.lattice.fold(np.atleast_1d(np.asarray(p, dtype=float)))
        key = tuple(np.round(folded / MOMENTUM_QUANTUM).astype(np.int64).tolist())
        return folded, winding, key

    def _entry(self, p) -> tuple[BlochEigenpair, BandDerivatives, np.ndarray]:
        folded, winding, key = self._folded(p)
        hit = self._cache.get(key)
        if hit is None:
            hit = band_derivatives(
                self.lattice, self.potential, folded, self.m, self.cutoff
            )
            self._cache[key] = hit
        return hit[0], hit[1], winding

    def energy(self, p) -> float:
        return self._entry(p)[0].energy

    def grad_energy(self, p) -> np.ndarray:
        return self._entry(p)[1].grad

    def hess_energy(self, p) -> np.ndarray:
        return self._entry(p)[1].hess

    def berry(self, p) -> np.ndarray:
        return self._entry(p)[1].berry

    def eigenpair(self, p) -> BlochEigenpair:
        """Cell function at the unfolded momentum p (anchored gauge)."""
        pair, _, winding = self._entry(p)
        p = np.atleast_1d(np.asarray(p, dtype=float))
        coeffs = _shift_coeffs(pair.coeffs, winding, self.dimension, self.cutoff)
        return replace(pair, k=p, coeffs=coeffs)

    def derivatives(self, p) -> BandDerivatives:
        _, derivs, winding = self._entry(p)
        dk = _shift_coeffs(derivs.dk_coeffs, winding, self.dimension, self.cutoff)
        return replace(derivs, dk_coeffs=dk)


class QuadraticBand:
    """Analytic dispersion E(k) = |k|^2 / 2, used to exercise the flow alone."""

    def __init__(self, dimension: int = 1):
        self._d = dimension

    @property
    def dimension(self) -> int:
        return self._d

    def energy(self, p) -> float:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return float(0.5 * np.dot(p, p))

    def grad_energy(self, p) -> np.ndarray:
        return np.atleast_1d(np.asarray(p, dtype=float)).copy()

    def hess_energy(self, p) -> np.ndarray:
        return np.eye(self._d)

    def berry(self, p) -> np.ndarray:
        return np.zeros(self._d, dtype=complex)


def default_cutoff(dimension: int) -> int:
    """Plane-wave cutoff defaults giving converged desk-scale spectra."""
    return 32 if dimension == 1 else 12
