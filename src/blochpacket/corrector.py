"""Two-scale corrector fields U_0, U_1, U_2 and solvability diagnostics.

Correctors are sums of separable terms f(z) g(y): the z-profile lives on
the envelope grid, the y-profile is a cell-scaled plane-wave coefficient
vector. With L_0 = E(p) - H(p), L_1 = i (p - grad E) . grad_z
+ grad_y . grad_z and L_2 = i d_t + 0.5 Lap_z - 0.5 <z, Hess V(q) z>,
the hierarchy solves L_0 U_0 = 0, L_0 U_1 + L_1 U_0 = 0 and
L_0 U_2 + L_1 U_1 + L_2 U_0 = 0, with the scalar parts of U_1, U_2 set to
zero so each corrector is orthogonal to the cell function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    BandDerivatives,
    BlochEigenpair,
    reduced_resolvent_solve,
    build_bloch_hamiltonian,
    cell_inner,
    pw_indices,
)
from .envelope import (
    ConstantCoefficients,
    GridEnvelope,
    evolve_grid_envelope,
    geometric_rate,
    spectral_gradient,
    spectral_hessian,
)


@dataclass(frozen=True)
class CorrectorField:
    """Sum of separable two-scale terms at one time."""

    order: int
    terms: tuple            # tuple of (z_profile array, y_coeffs array)
    half_width: float       # envelope box of the z-profiles
    t: float
    pair: BlochEigenpair    # carries lattice, cutoff and the gauge used

    @property
    def dimension(self) -> int:
        return self.pair.dimension

    def norm(self, dz_volume: float) -> float:
        """L2(dz x dy) norm via the Gram matrices of both factors."""
        return _terms_norm(list(self.terms), self.pair.lattice, dz_volume)


def _terms_norm(terms, lattice, dz_volume: float) -> float:
    total = 0.0 + 0.0j
    for fr, gr in terms:
        for fs, gs in terms:
            zin = np.vdot(fr, fs) * dz_volume
            yin = cell_inner(lattice, gr, gs)
            total += zin * yin
    return float(np.sqrt(max(total.real, 0.0)))


def _perp(pair: BlochEigenpair, vec: np.ndarray) -> np.ndarray:
    """Component of a coefficient vector orthogonal to the cell function."""
    return vec - pair.coeffs * cell_inner(pair.lattice, pair.coeffs, vec)


def _dy(pair: BlochEigenpair, vec: np.ndarray, axis: int) -> np.ndarray:
    """Coefficient action of d/dy_axis: multiply by i (G_n)_axis."""
    n = pw_indices(pair.dimension, pair.cutoff)
    g = pair.lattice.dual_vectors(n)
    return 1j * g[:, axis] * vec


def _node_data(band, state) -> tuple:
    """Cell function, band derivatives and fiber Hamiltonian at state.p."""
    pair = band.eigenpair(state.p)
    derivs = band.derivatives(state.p)
    h = build_bloch_hamiltonian(pair.lattice, band.potential, pair.k, pair.cutoff)
    return pair, derivs, h.astype(complex)


def build_U0(u: GridEnvelope, pair: BlochEigenpair) -> CorrectorField:
    """Leading term: envelope times cell function."""
    return CorrectorField(
        order=0,
        terms=((u.values.copy(), pair.coeffs.copy()),),
        half_width=u.half_width,
        t=u.t,
        pair=pair,
    )


def build_U1(
    u: GridEnvelope, pair: BlochEigenpair, derivs: BandDerivatives
) -> CorrectorField:
    """First corrector -i sum_j (d_j u) P_perp d_k_j chi.

    The projector is applied explicitly so the corrector is orthogonal to
    the cell function in every direction regardless of the gauge's phase
    rate.
    """
    grads = spectral_gradient(u)
    terms = []
    for j in range(u.dimension):
        xj = _perp(pair, derivs.dk_coeffs[j])
        terms.append((grads[j], -1j * xj))
    return CorrectorField(
        order=1, terms=tuple(terms), half_width=u.half_width, t=u.t, pair=pair
    )


def _second_corrector_rhs(
    u: GridEnvelope,
    state,
    pair: BlochEigenpair,
    derivs: BandDerivatives,
    external,
) -> list:
    """Separable terms of L_1 U_1 + L_2 U_0 that survive the projector.

    The scalar (cell-parallel) parts cancel once the envelope equation is
    substituted for i d_t u, so only second-derivative couplings and the
    momentum-drag term remain:
      sum_jl (d2_jl u) [ (p - grad E)_j x_l - i d_y_j x_l ]  +  u (i p' . x)
    with x_l the orthogonal k-derivative and p' = -grad V(q).
    """
    d = u.dimension
    hess_u = spectral_hessian(u)
    xs = [_perp(pair, derivs.dk_coeffs[j]) for j in range(d)]
    drift = np.atleast_1d(state.p) - derivs.grad
    pdot = -external.grad(state.q)
    terms = []
    for j in range(d):
        for l in range(d):
            y = drift[j] * xs[l] - 1j * _dy(pair, xs[l], j)
            terms.append((hess_u[j, l], y))
    drag = np.zeros_like(xs[0])
    for j in range(d):
        drag = drag + 1j * pdot[j] * xs[j]
    terms.append((u.values.copy(), drag))
    return terms


def build_U2(
    u: GridEnvelope,
    state,
    band,
    external,
) -> CorrectorField:
    """Second corrector: reduced resolvent applied to -(L_1 U_1 + L_2 U_0).

    Assembles the projected right-hand side and solves (H(p) - E) w = rhs
    for each separable term with <chi, w> = 0, so <chi, U_2> = 0.
    """
    pair, derivs, h = _node_data(band, state)
    chi_unit = pair.unit_coeffs()
    scale = np.sqrt(pair.lattice.cell_volume)
    terms = []
    for zprof, y in _second_corrector_rhs(u, state, pair, derivs, external):
        w_unit = reduced_resolvent_solve(h, pair.energy, chi_unit, y * scale)
        terms.append((zprof, w_unit / scale))
    return CorrectorField(
        order=2, terms=tuple(terms), half_width=u.half_width, t=u.t, pair=pair
    )


def time_derivative(u: GridEnvelope, coefficients, delta: float) -> np.ndarray:
    """Centered difference d_t u from two single propagator steps."""
    ahead = evolve_grid_envelope(u, coefficients, u.t + delta, delta)
    behind = evolve_grid_envelope(u, coefficients, u.t - delta, delta)
    return (ahead.values - behind.values) / (2.0 * delta)


def _frozen_coefficients(state, band, external) -> ConstantCoefficients:
    return ConstantCoefficients(
        dispersion=band.hess_energy(state.p),
        vhess=external.hess(state.q),
        berry_rate=geometric_rate(band, external, state),
    )


def solvability_defect(
    u: GridEnvelope,
    state,
    band,
    external,
    du_dt: np.ndarray | None = None,
    fd_delta: float = 1e-5,
) -> tuple[float, float]:
    """Cell-function projections of the first two hierarchy right-hand sides.

    defect1 = || <chi, L_1 U_0> ||_L2(dz): vanishes identically because the
    band gradient equals the velocity expectation.

    defect2 = || <chi, L_1 U_1 + L_2 U_0> ||_L2(dz): vanishes when u solves
    the envelope equation. The time derivative entering L_2 is taken from
    du_dt when given (e.g. a centered difference of propagator snapshots,
    or zeros to probe stale data); by default it is generated by two short
    propagator steps with coefficients frozen at this node, which makes
    defect2 a consistency check of the coefficient algebra alone.
    """
    pair = band.eigenpair(state.p)
    derivs = band.derivatives(state.p)
    d = u.dimension

    grads = spectral_gradient(u)
    drift = np.atleast_1d(state.p) - derivs.grad
    chi = pair.coeffs
    g1 = np.zeros(u.values.shape, dtype=complex)
    for j in range(d):
        dchi = cell_inner(pair.lattice, chi, _dy(pair, chi, j))
        g1 += 1j * drift[j] * grads[j] + dchi * grads[j]
    defect1 = u.grid.norm(g1)

    if du_dt is None:
        du_dt = time_derivative(u, _frozen_coefficients(state, band, external), fd_delta)
    elif isinstance(du_dt, GridEnvelope):
        du_dt = du_dt.values

    hess_u = spectral_hessian(u)
    xs = [_perp(pair, derivs.dk_coeffs[j]) for j in range(d)]
    qmat = external.hess(state.q)

    # the parallel momentum drag i p' . <chi, grad_k chi> is -i beta
    g2 = 1j * du_dt - 0.5 * u.grid.quadratic_form(qmat) * u.values
    g2 = g2 - 1j * geometric_rate(band, external, state) * u.values
    for j in range(d):
        g2 = g2 + 0.5 * hess_u[j, j]
        for l in range(d):
            t_jl = -1j * cell_inner(pair.lattice, chi, _dy(pair, xs[l], j))
            g2 = g2 + t_jl * hess_u[j, l]
    defect2 = u.grid.norm(g2)
    return defect1, defect2


def system_residuals(
    u: GridEnvelope,
    state,
    band,
    external,
    u0: CorrectorField,
    u1: CorrectorField,
    u2: CorrectorField,
) -> tuple[float, float, float]:
    """L2(dz x dy) residuals of the three hierarchy equations.

    The time derivative in L_2 U_0 is eliminated with the envelope equation
    (the hierarchy is exactly the statement that the projected equations
    close on it), so small residuals certify the eigensolve, the resolvent
    solves and the coefficient algebra jointly.
    """
    pair, derivs, h = _node_data(band, state)
    lattice = pair.lattice
    d = u.dimension
    vol = u.grid.dv

    def l0(y: np.ndarray) -> np.ndarray:
        return pair.energy * y - h @ y

    # L_0 U_0
    r0_terms = [(f, l0(g)) for f, g in u0.terms]
    r0 = _terms_norm(r0_terms, lattice, vol)

    # L_0 U_1 + L_1 U_0
    grads = spectral_gradient(u)
    drift = np.atleast_1d(state.p) - derivs.grad
    chi = pair.coeffs
    r1_terms = []
    for j, (f, g) in enumerate(u1.terms):
        y = l0(g) + 1j * drift[j] * chi + _dy(pair, chi, j)
        r1_terms.append((grads[j], y))
    r1 = _terms_norm(r1_terms, lattice, vol)

    # L_0 U_2 + L_1 U_1 + L_2 U_0 with i d_t u from the envelope equation
    r2_terms = [(f, l0(g)) for f, g in u2.terms]
    r2_terms.extend(_second_corrector_rhs(u, state, pair, derivs, external))

    hess_u = spectral_hessian(u)
    mmat = derivs.hess
    qmat = external.hess(state.q)
    beta = geometric_rate(band, external, state)
    idtu = 0.5 * u.grid.quadratic_form(qmat) * u.values + beta * u.values
    for j in range(d):
        for l in range(d):
            idtu = idtu - 0.5 * mmat[j, l] * hess_u[j, l]
    scalar = idtu - 0.5 * u.grid.quadratic_form(qmat) * u.values
    for j in range(d):
        scalar = scalar + 0.5 * hess_u[j, j]
    r2_terms.append((scalar, chi.copy()))
    # parallel part of the momentum drag (the perpendicular part is already
    # inside the rhs terms), i p' . <chi, grad_k chi> = -i beta; it balances
    # the geometric term inside i d_t u
    r2_terms.append((-1j * beta * u.values, chi.copy()))
    r2 = _terms_norm(r2_terms, lattice, vol)
    return r0, r1, r2
