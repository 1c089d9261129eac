"""Two-scale corrector fields U_0, U_1, U_2 and solvability diagnostics.

Correctors are sums of separable terms f(z) g(y). The z-profile is u,
d_j u = -(W z)_j u or d_j d_l u = ((W z)_j (W z)_l - W_jl) u of the Gaussian
envelope, W = B A^-1; a term names it by its axes (), (j,) or (j, l), and it
is evaluated in closed form at whatever points a caller needs. The y-profile
is a cell-scaled plane-wave coefficient vector. With L_0 = E(p) - H(p),
L_1 = i (p - grad E) . grad_z + grad_y . grad_z and
L_2 = i d_t + 0.5 Lap_z - 0.5 <z, Hess V(q) z>, the hierarchy solves
L_0 U_0 = 0, L_0 U_1 + L_1 U_0 = 0 and L_0 U_2 + L_1 U_1 + L_2 U_0 = 0, with
the scalar parts of U_1, U_2 set to zero so each corrector is orthogonal to
the cell function.

The right-hand sides are written once, as separable terms: U_2 applies the
reduced resolvent to them and the solvability defects project them onto the
cell function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    BlochEigenpair,
    reduced_resolvent_solve,
    build_bloch_hamiltonian,
    cell_inner,
    cell_volume,
    pw_indices,
)
from .envelope import GaussianEnvelope, gaussian_eval, geometric_rate
from .errors import GridError
from .grid import SpatialGrid


@dataclass(frozen=True)
class CorrectorField:
    """Sum of separable two-scale terms of one expansion order at one time."""

    order: int                  # power of sqrt(eps) that weights the field
    terms: tuple                # (axes, y_coeffs) pairs; the z-profile is d_axes u
    envelope: GaussianEnvelope  # the u of the z-profiles
    grid: SpatialGrid           # envelope z-grid on which `norm` samples them
    pair: BlochEigenpair        # carries the potential and cutoff

    def norm(self) -> float:
        """|| sum_r f_r g_r ||_L2(dz x dy) as || R G^T || sqrt(dv |Y|), with
        F = QR the z-profiles stacked on the grid, so cancellations between
        terms happen in the small product R G^T rather than in a Gram sum."""
        zmat = term_profiles([self], self.grid.points()).T
        ymat = np.stack([g for _, g in self.terms])
        rmat = np.linalg.qr(zmat, mode="r")
        volume = self.grid.dv * cell_volume(self.pair.dimension)
        return float(np.linalg.norm(rmat @ ymat) * np.sqrt(volume))


def _perp(pair: BlochEigenpair, vec: np.ndarray) -> np.ndarray:
    """Component of a coefficient vector orthogonal to the cell function."""
    return vec - pair.coeffs * cell_inner(pair.dimension, pair.coeffs, vec)


def _dy(pair: BlochEigenpair, vec: np.ndarray, axis: int) -> np.ndarray:
    """Coefficient action of d/dy_axis: multiply by i (G_n)_axis."""
    return 1j * pw_indices(pair.dimension, pair.cutoff)[:, axis] * vec


def _profiles(env: GaussianEnvelope, z: np.ndarray) -> tuple:
    """u, grad u and Hess u of the Gaussian at the points z (N, d), shaped
    (N,), (d, N) and (d, d, N): with W = B A^-1, grad u = -(W z) u and
    Hess u = ((W z)(W z)^T - W) u."""
    w = env.width_matrix()
    u = gaussian_eval(env, z)
    wz = w @ z.T  # W is symmetric
    return u, -wz * u, (wz[:, None] * wz[None, :] - w[:, :, None]) * u


def term_profiles(fields, z: np.ndarray) -> np.ndarray:
    """z-profiles of every term of fields that share one envelope, at the
    points z (N, d), shape (R, N); one `_profiles` serves them all."""
    env = fields[0].envelope
    if any(field.envelope is not env for field in fields):
        raise GridError("corrector fields must share one envelope")
    derivs = _profiles(env, z)
    return np.stack([derivs[len(axes)][axes] for field in fields for axes, _ in field.terms])


# ---------------------------------------------------------------------------
# The hierarchy, written once


def _first_order_terms(state, pair: BlochEigenpair) -> list:
    """Separable terms of L_1 U_0 = sum_j (d_j u) [i (p - grad E)_j chi + d_y_j chi]."""
    drift = np.atleast_1d(state.p) - pair.grad
    chi = pair.coeffs
    return [((j,), 1j * drift[j] * chi + _dy(pair, chi, j)) for j in range(pair.dimension)]


def _second_order_terms(state, pair: BlochEigenpair, external) -> list:
    """Separable terms of L_1 U_1 + L_2 U_0 whose cell factor is not chi.

    With x_l the orthogonal k-derivative and p' = -grad V(q) these are
      sum_jl (d2_jl u) [ (p - grad E)_j x_l - i d_y_j x_l ]  +  u (i p' . x);
    the rest of the right-hand side is a z-profile times chi (`solvability_defect`).
    """
    d = pair.dimension
    xs = [_perp(pair, pair.dk_coeffs[j]) for j in range(d)]
    drift = np.atleast_1d(state.p) - pair.grad
    pdot = -external.grad(state.q)
    terms = [
        ((j, l), drift[j] * xs[l] - 1j * _dy(pair, xs[l], j))
        for j in range(d)
        for l in range(d)
    ]
    drag = sum(1j * pdot[j] * xs[j] for j in range(d))
    return terms + [((), drag)]


def _chi_profile(pair: BlochEigenpair, terms, derivs) -> np.ndarray:
    """<chi, sum f g>(z): projection of separable terms onto the cell function,
    with derivs the `_profiles` their axes pick from."""
    return sum(derivs[len(a)][a] * cell_inner(pair.dimension, pair.coeffs, g) for a, g in terms)


# ---------------------------------------------------------------------------
# Correctors and diagnostics


def build_U0(env: GaussianEnvelope, grid: SpatialGrid, pair: BlochEigenpair) -> CorrectorField:
    """Leading term: envelope times cell function."""
    return CorrectorField(0, (((), pair.coeffs.copy()),), env, grid, pair)


def build_U1(env: GaussianEnvelope, grid: SpatialGrid, pair: BlochEigenpair) -> CorrectorField:
    """First corrector -i sum_j (d_j u) P_perp d_k_j chi.

    d_k chi carries the anchored gauge's phase rate (berry times chi); the
    projector is applied explicitly so the corrector is orthogonal to the
    cell function in every direction.
    """
    terms = tuple(((j,), -1j * _perp(pair, dk)) for j, dk in enumerate(pair.dk_coeffs))
    return CorrectorField(1, terms, env, grid, pair)


def build_U2(
    env: GaussianEnvelope, grid: SpatialGrid, state, pair: BlochEigenpair, external
) -> CorrectorField:
    """Second corrector: reduced resolvent applied to -(L_1 U_1 + L_2 U_0).

    Solves (H(p) - E) w = P_perp y for every separable term of the right-hand side at once,
    from the record's eigendecomposition of H(p), with <chi, w> = 0, so <chi, U_2> = 0; the
    chi-parallel part is the envelope equation and drops out.
    """
    h = build_bloch_hamiltonian(pair.potential, pair.k, pair.cutoff)
    axes, ys = zip(*_second_order_terms(state, pair, external))
    xs = reduced_resolvent_solve(h, pair.evals, pair.evecs, pair.m, np.stack(ys, axis=-1))
    return CorrectorField(2, tuple(zip(axes, xs.T)), env, grid, pair)


def solvability_defect(
    env: GaussianEnvelope, grid: SpatialGrid, state, band, external, du_dt: np.ndarray | None = None
) -> tuple[float, float]:
    """Cell-function projections of the first two hierarchy right-hand sides.

    defect1 = || <chi, L_1 U_0> ||_L2(dz): vanishes identically because the
    band gradient equals the velocity expectation.

    defect2 = || <chi, L_1 U_1 + L_2 U_0> ||_L2(dz): vanishes when u solves
    the envelope equation. The time derivative entering L_2 is taken from
    du_dt, samples on grid, when given (zeros probe stale data); by default
    i d_t u comes from the envelope equation with the M, Q and beta the
    envelope propagators use at this node, so defect2 checks the band
    Hessian and the geometric rate against the cell data to rounding.
    """
    pair = band.eigenpair(state.p)
    vquad = grid.quadratic_form(external.hess(state.q))
    beta = geometric_rate(band, external, state)
    derivs = [f.reshape(f.shape[:-1] + grid.shape) for f in _profiles(env, grid.points())]
    u, _, hess_u = derivs
    if du_dt is None:  # the envelope equation: -0.5 M : Hess u + 0.5 <z, Q z> u + i beta u
        mmat = band.hess_energy(state.p)
        idtu = 0.5 * vquad * u + 1j * beta * u - 0.5 * np.tensordot(mmat, hess_u, axes=2)
    else:
        idtu = 1j * du_dt

    defect1 = grid.norm(_chi_profile(pair, _first_order_terms(state, pair), derivs))
    # chi's z-profile: i d_t u + 0.5 Lap u - 0.5 <z, Q z> u - i beta u, the last
    # term being the cell-parallel momentum drag i p' . <chi, grad_k chi>
    parallel = idtu + 0.5 * np.trace(hess_u) - 0.5 * vquad * u - 1j * beta * u
    second = _second_order_terms(state, pair, external)
    defect2 = grid.norm(parallel + _chi_profile(pair, second, derivs))
    return defect1, defect2
