"""Plane-wave Bloch eigenproblem: bands, cell functions, k-derivatives.

The fiber Hamiltonian at quasimomentum k acts on cell-periodic functions as
0.5 * (-i grad_y + k)^2 + V(y) on the lattice (2 pi Z)^d, whose dual vectors G_n
are the integer indices n themselves. In the plane-wave basis e_n = exp(i<G_n, y>)
(indices |n|_inf <= cutoff, lexicographic order) it is dense Hermitian with
kinetic diagonal 0.5 * |G_n + k|^2 and potential entries vhat(n - n'). No function
takes the lattice: d is the potential's, and the caches key on the potential.

Eigenvector coefficients are stored in the "cell" scaling c_n, normalized so
that |Y| * sum |c_n|^2 = 1, i.e. the cell function has unit L^2(Y) norm, with
|Y| = (2 pi)^d = `cell_volume(d)`. Inner products over the cell in this scaling
are |Y| * sum conj(a) b.

`BlochBand` serves band energy, gradient, Hessian and connection from a band table:
Chebyshev series on zone patches, each built when a query first falls inside it by one
stacked `band_derivatives` solve per row of n nodes (n * M^2 entries per array).
Cell functions are solved at the momentum asked for, and every reduced resolvent
comes from the dense eigendecomposition that the solve's record keeps.

Unless a cutoff is given, `sized_cutoff` picks it per band: the smallest at which
the band data at the zone corners move by at most CUTOFF_TOL from c to c + 2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateBandError, EigensolverError, GaugeError
from .grid import as_points, mesh
from .lattice import FourierPotential

EIG_RESIDUAL_TOL = 1e-9
GAP_TOL_RELATIVE = 1e-8
ORTHO_TOL = 1e-12
ANCHOR_FLOOR = 1e-3  # smallest |psi_k(y0)| (unit-norm coefficients) the gauge accepts
ANCHOR_SAMPLES = 16  # cell points per axis searched for the anchor point
PATCHES_PER_AXIS = 8  # band-table patches per zone axis; k = 0 and the edge are patch boundaries
PATCH_NODES = (16, 32, 64)  # Chebyshev points per patch axis, doubled while the tail is too large
TAIL_TOL = 1e-12  # largest last-quarter Chebyshev coefficient, relative to max(1, |node values|)
DIRECT_CACHE_SIZE = 16  # records kept (1.8 KB each at cutoff 7 in 1D); the busiest run asks for 5
CUTOFF_TOL = 1e-13  # largest c -> c + 2 change of a sized cutoff's band data, relative, floor 1
MAX_PLANE_WAVES = 1089  # largest basis a sized cutoff compares against: cutoff 16 in 2D


@functools.lru_cache(maxsize=None)
def pw_indices(dimension: int, cutoff: int) -> np.ndarray:
    """Integer multi-indices |n|_inf <= cutoff in lexicographic order, (M, d)."""
    return mesh([np.arange(-cutoff, cutoff + 1)] * dimension).reshape(-1, dimension)


@dataclass(frozen=True)
class BlochEigenpair:
    """One simple band at one k: energy, anchored cell function, their first and second
    k-derivatives, the band's isolation, and the eigendecomposition of H(k)."""

    k: np.ndarray            # quasimomentum, possibly outside the first zone; (N, d): arrays lead with N
    m: int                   # band index, 1-based, bands sorted ascending
    energy: float
    coeffs: np.ndarray       # cell-scaled plane-wave coefficients, lex order
    cutoff: int
    grad: np.ndarray         # (d,) gradient of the band energy
    hess: np.ndarray         # (d, d) symmetric Hessian of the band energy
    dk_coeffs: np.ndarray    # (d, M) cell-scaled coefficients of d_k(cell function)
    berry: np.ndarray        # (d,) purely imaginary <chi, d_k chi> in the anchored gauge
    gaps: np.ndarray         # distances to the bands just below and above, where they exist
    width: float             # spectrum width E_M - E_1, the scale of the isolation test
    potential: FourierPotential  # the lattice potential of H(k)
    evals: np.ndarray        # (M,) every band energy at k, ascending
    evecs: np.ndarray        # (M, M) orthonormal eigenvector columns, unit-norm scaling

    @property
    def dimension(self) -> int:
        return self.potential.dimension


def cell_volume(d: int) -> float:
    """|Y|, the volume of the cell [0, 2 pi)^d."""
    return (2.0 * np.pi) ** d


def cell_inner(d: int, a: np.ndarray, b: np.ndarray) -> complex:
    """L^2(Y) inner product of cell functions given cell-scaled coefficients."""
    return cell_volume(d) * complex(np.vdot(a, b))


def build_bloch_hamiltonian(potential: FourierPotential, k, cutoff: int) -> np.ndarray:
    """Dense fiber Hamiltonian in the plane-wave basis at quasimomentum k (d,), or one
    per row of a stack k (N, d), shape (N, M, M): the potential part is built once, and
    only the kinetic diagonal depends on k."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    d = potential.dimension
    if k.ndim > 2 or k.shape[-1:] != (d,):
        raise EigensolverError(f"quasimomentum shape {k.shape} is not ({d},) or (N, {d})")
    if not np.all(np.isfinite(k)):
        raise EigensolverError("quasimomentum must be finite")
    if cutoff < potential.cutoff:
        raise EigensolverError(f"cutoff {cutoff} below potential support {potential.cutoff}")
    n = pw_indices(d, cutoff)
    kinetic = 0.5 * np.sum((n + k[..., None, :]) ** 2, axis=-1)

    # Dense cube of coefficients over index differences, fancy-indexed below.
    width = 4 * cutoff + 1
    cube = np.zeros((width,) * d, dtype=complex)
    for idx, v in potential.coeffs:
        cube[tuple(c + 2 * cutoff for c in idx)] = v
    diff = n[:, None, :] - n[None, :, :] + 2 * cutoff
    v = cube[tuple(diff[..., j] for j in range(d))]
    h = np.broadcast_to(v.real if potential.is_real_matrix else v, kinetic.shape[:-1] + v.shape).copy()
    h.reshape(kinetic.shape[:-1] + (-1,))[..., :: len(n) + 1] += kinetic  # the diagonal, as a view
    return h


@functools.lru_cache(maxsize=None)
def _anchor_point(potential: FourierPotential, m: int, cutoff: int) -> np.ndarray:
    """Cell point y0 at which band m's Bloch waves are anchored.

    At the zone corners k in {0, 1/2}^d (one stacked `eigh`) the Bloch waves
    are real and vanish somewhere; y0 is the point of an ANCHOR_SAMPLES^d cell
    grid maximizing the smallest |chi_k(y0)| / max |chi_k| over the corners
    where band m is simple, taken to 9 digits so that mirror points tie and the
    first wins at every cutoff. At a corner where band m is degenerate, `eigh`
    returns an arbitrary vector of the eigenspace, so such corners are skipped.
    """
    d = potential.dimension
    fracs = np.arange(ANCHOR_SAMPLES) / ANCHOR_SAMPLES
    points = 2.0 * np.pi * mesh([fracs] * d).reshape(-1, d)
    worst = np.full(points.shape[0], np.inf)
    corners = np.array(list(itertools.product((0.0, 0.5), repeat=d)))
    for evals, evecs in zip(*np.linalg.eigh(build_bloch_hamiltonian(potential, corners, cutoff))):
        try:
            _check_isolated(_gaps(evals, m).min(initial=np.inf), evals[-1] - evals[0], m)
        except DegenerateBandError:
            continue
        values = np.abs(evaluate_cell_coeffs(d, cutoff, evecs[:, m - 1], points))
        worst = np.minimum(worst, values / values.max())
    if np.all(np.isinf(worst)):
        raise GaugeError(f"band {m} is simple at no zone corner; no anchor point")
    return points[int(np.argmax(np.round(worst, 9)))]


def _corner_data(potential: FourierPotential, m: int, bands: range, cutoff: int) -> np.ndarray:
    """The energies of bands and band m's E, grad E, Hess E and Im berry at each
    zone corner k in {0, 1/2}^d, one row per corner; NaN where band m is not simple."""
    rows, d = [], potential.dimension
    for corner in itertools.product((0.0, 0.5), repeat=d):
        k = np.asarray(corner)
        try:
            pair = band_derivatives(potential, k, m, cutoff)
            evals, data = pair.evals, [pair.energy, *pair.grad, *pair.hess.flat, *pair.berry.imag]
        except (DegenerateBandError, EigensolverError, GaugeError):  # band m not simple here
            evals = np.linalg.eigh(build_bloch_hamiltonian(potential, k, cutoff))[0]
            data = [np.nan] * (1 + 2 * d + d**2)
        rows.append(np.concatenate([evals[bands.start - 1 : bands.stop - 1], data]))
    return np.array(rows)


@functools.lru_cache(maxsize=None)
def sized_cutoff(potential: FourierPotential, m: int, bands: range) -> tuple:
    """Cutoff for band m of a run that reads the energies of bands, and its largest change:
    the smallest c at or above the potential's support, with every band in the basis, at
    which `_corner_data` moves by at most CUTOFF_TOL from c to c + 2 (NaN at both skipped)."""
    d, cutoff = potential.dimension, potential.cutoff
    while (2 * cutoff + 1) ** d < bands.stop - 1:
        cutoff += 1
    data = functools.cache(lambda c: _corner_data(potential, m, bands, c))
    while (2 * cutoff + 5) ** d <= MAX_PLANE_WAVES:
        a, b = data(cutoff), data(cutoff + 2)
        change = np.where(np.isnan(a) & np.isnan(b), 0.0, abs(b - a) / np.maximum(1.0, abs(b)))
        if change.max() <= CUTOFF_TOL:
            return cutoff, float(change.max())
        cutoff += 1
    raise EigensolverError(
        f"band {m} data move by over {CUTOFF_TOL:.0e} up to {MAX_PLANE_WAVES} plane waves; set cutoff"
    )


def _gaps(evals: np.ndarray, m: int) -> np.ndarray:
    """Gaps from band m (1-based) to the bands just below and above that exist, along the last axis."""
    lam = evals[..., m - 1 : m]
    return np.concatenate([lam - evals[..., m - 2 : m - 1], evals[..., m : m + 1] - lam], axis=-1)


def _check_isolated(gap: float, width: float, m: int) -> None:
    """Raise unless band m (1-based) is apart from its neighbors at the same
    k, given its smallest gap to them and the spectrum width."""
    scale = max(float(width), 1.0)
    if gap < GAP_TOL_RELATIVE * scale:
        raise DegenerateBandError(f"band {m} gap {gap:.3e} below {GAP_TOL_RELATIVE:.1e} * {scale:.3e}")


def reduced_resolvent_solve(
    h: np.ndarray, evals: np.ndarray, evecs: np.ndarray, m: int, rhs: np.ndarray
) -> np.ndarray:
    """Solve (H - E_m) x = P_perp rhs subject to <w_m, x> = 0, given H's
    eigendecomposition (evals ascending, orthonormal eigenvector columns w_n).

    x = sum_{n != m} w_n <w_n, rhs> / (lam_n - E_m), for rhs of shape (M,) or
    (M, R) with one right-hand side per column. It is finite exactly when
    band m (1-based) is simple. A stack of N Hamiltonians (N, M, M), with
    evals (N, M), evecs (N, M, M) and rhs (N, M) or (N, M, R), is solved at once.
    """
    b = rhs[..., None] if rhs.ndim == evals.ndim else rhs  # (..., M, R)
    energy = evals[..., m - 1, None, None]
    shift = evals - energy[..., 0]
    shift[..., m - 1] = np.inf
    x = evecs @ ((evecs.conj().swapaxes(-1, -2) @ b) / shift[..., None])
    chi = evecs[..., m - 1 : m]
    rhs_perp = b - chi @ (chi.conj().swapaxes(-1, -2) @ b)
    residual = np.linalg.norm(h @ x - energy * x - rhs_perp, axis=-2)
    if np.any(residual > 1e-8 * np.maximum(1.0, np.linalg.norm(rhs_perp, axis=-2))):
        raise EigensolverError(f"reduced-resolvent residual {np.max(residual):.3e}")
    if np.any(np.abs(chi.conj().swapaxes(-1, -2) @ x) > ORTHO_TOL):
        raise EigensolverError("reduced-resolvent solution not orthogonal")
    return x if b is rhs else x[..., 0]


def band_derivatives(potential: FourierPotential, k, m: int, cutoff: int) -> BlochEigenpair:
    """Energy, cell function and their k-derivatives for one simple band, at one k (d,)
    or at every row of a stack k (N, d) from one batched eigensolve; the record's array
    fields then carry a leading N axis.

    The cell function is in the anchored gauge: its phase makes the Bloch
    wave psi_k(y0) = sum_n c_n exp(i <G_n + k, y0>) real and positive at the
    anchor point y0 of `_anchor_point`. psi_k and psi_{k+G} are the same
    function, so chi(k + G) = exp(-i <G, y>) chi(k) exactly, and the gauge is
    smooth wherever psi_k(y0) != 0 (in 1D, the whole zone interior).

    The gradient is the velocity expectation <chi, (-i grad_y + k) chi>. The
    coefficient derivative combines the reduced-resolvent solution x_j (the
    component orthogonal to chi) with the phase rate of the anchored gauge;
    the latter is also returned as the purely imaginary connection vector.

    A failed check names the k it failed at; a stack that fails one is solved again
    one node at a time, so the first failing node in node order raises.
    """
    d = potential.dimension
    k = np.atleast_1d(np.asarray(k, dtype=float))
    h = build_bloch_hamiltonian(potential, k, cutoff)
    ks, h = k.reshape(-1, d), h.reshape((-1,) + h.shape[-2:])
    if not 1 <= m <= h.shape[-1]:
        raise EigensolverError(f"band index {m} outside [1, {h.shape[-1]}] at k = {ks[0]}")
    y0 = _anchor_point(potential, m, cutoff)
    g_plus_k = pw_indices(d, cutoff) + ks[:, None, :]  # (N, M, d)
    try:
        try:
            evals, evecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"dense eigensolve failed: {exc}") from exc
        gaps, width = _gaps(evals, m), evals[:, -1] - evals[:, 0]
        i = int(np.argmax(gaps.min(axis=1, initial=np.inf) < GAP_TOL_RELATIVE * np.maximum(width, 1.0)))
        _check_isolated(float(gaps[i].min(initial=np.inf)), float(width[i]), m)
        vec, energy = evecs[..., m - 1].astype(complex), evals[:, m - 1]
        residual = np.linalg.norm((h @ vec[..., None])[..., 0] - energy[:, None] * vec, axis=1)
        if residual.max() > EIG_RESIDUAL_TOL:
            raise EigensolverError(f"eigen-residual {residual.max():.3e} for band {m}")
        row = np.exp(1j * (g_plus_k @ y0))
        wave = (row[:, None, :] @ vec[..., None])[:, 0, 0]  # psi_k(y0) before the phase is fixed
        anchor = np.hypot(wave.real, wave.imag)  # |wave| rounded as a scalar's abs rounds it
        if anchor.min() < ANCHOR_FLOOR:
            raise GaugeError(
                f"Bloch wave at the anchor point has modulus {anchor.min():.3e} below {ANCHOR_FLOOR:.0e}"
            )
        a = vec * (np.conj(wave) / anchor)[:, None]
        x = reduced_resolvent_solve(h, evals, evecs, m, -(g_plus_k * a[..., None]))  # (N, M, d)
        # Hess E_jl = delta_jl + <a, (G + k)_j x_l> + <a, (G + k)_l x_j>
        terms = (np.conj(a)[..., None] * g_plus_k).swapaxes(1, 2) @ x
        terms = terms + terms.swapaxes(1, 2)
        if np.any(np.abs(terms.imag) > 1e-9 * np.maximum(1.0, np.abs(terms.real))):
            raise EigensolverError("Hessian assembly produced imaginary part")
    except (DegenerateBandError, EigensolverError, GaugeError) as exc:
        if len(ks) == 1:
            raise type(exc)(f"{exc} at k = {ks[0]}") from exc
        for node in ks:
            band_derivatives(potential, node, m, cutoff)
        raise

    # Phase rate of the anchored gauge: differentiating Im psi_k(y0) = 0 with
    # d_k row = i y0 row and psi_k(y0) = |anchor| gives
    # alpha_j = -y0_j - Im(row @ x_j) / |anchor|.
    alphas = -y0 - (row[:, None, :] @ x)[:, 0].imag / anchor[:, None]
    scale = np.sqrt(cell_volume(d))
    fields = dict(
        k=ks, energy=energy, coeffs=a / scale, grad=(np.abs(a[:, None, :]) ** 2 @ g_plus_k)[:, 0],
        hess=np.eye(d) + terms.real, berry=1j * alphas, gaps=gaps, width=width, evals=evals,
        evecs=evecs, dk_coeffs=(x.swapaxes(1, 2) + 1j * alphas[..., None] * a[:, None, :]) / scale,
    )
    fields = {name: value[0] for name, value in fields.items()} if k.ndim == 1 else fields
    return BlochEigenpair(m=m, cutoff=cutoff, potential=potential, **fields)


def evaluate_cell_coeffs(d: int, cutoff: int, coeffs: np.ndarray, points) -> np.ndarray:
    """Values of sum_n c_n exp(i <G_n, y>) at points (..., d) for any c.

    Coefficient columns (M, R) give R cell functions at once, on a
    trailing axis of the result.
    """
    g = pw_indices(d, cutoff).astype(float)
    return np.exp(1j * (as_points(points, d) @ g.T)) @ coeffs


@functools.lru_cache(maxsize=None)
def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev points on [-1, 1] and the matrix taking values
    at the points to the coefficients of their interpolating series."""
    theta = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    to_coeffs = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    to_coeffs[0] /= 2
    return np.cos(theta), to_coeffs


class BandPatch:
    """Band data on one zone patch as a truncated Chebyshev series.

    values at the n^d Chebyshev points are (n,) * d + (columns,): E, grad E,
    Hess E (row-major), Im berry, the gaps to the neighboring bands and the
    spectrum width. coeffs holds their series sum_k c_k T_k(x) per axis,
    which takes the node values at the nodes. tail is the largest
    coefficient of degree >= 3n/4 along some axis over the first `smooth`
    columns, each relative to max(1, max |node value|).
    """

    def __init__(self, values: np.ndarray, smooth: int):
        self.nodes = n = values.shape[0]
        coeffs = values
        for axis in range(values.ndim - 1):
            coeffs = np.moveaxis(np.tensordot(_chebyshev(n)[1], coeffs, axes=(1, axis)), 0, axis)
        self.coeffs = coeffs
        self._degrees = np.arange(n, dtype=float)
        trailing = np.indices(values.shape[:-1]).max(axis=0) >= n - n // 4
        scale = np.maximum(1.0, np.abs(values[..., :smooth].reshape(-1, smooth)).max(axis=0))
        self.tail = float(np.max(np.abs(coeffs[trailing][:, :smooth]).max(axis=0) / scale))

    def interpolate(self, x) -> np.ndarray:
        """Every column's series at local coordinates x in [-1, 1]^d."""
        out = self.coeffs
        for xj in x:
            out = np.cos(self._degrees * math.acos(xj)) @ out.reshape(self.nodes, -1)
        return out

    def interpolate_rows(self, x: np.ndarray) -> np.ndarray:
        """`interpolate` at N local points x, (N, d), one product per axis."""
        out = self.coeffs.reshape(1, self.nodes, -1)
        for xj in x.T:
            rows = np.multiply.outer(np.arccos(xj), self._degrees)
            np.cos(rows, out=rows)  # in place: N may be large
            out = rows[:, None, :] @ out.reshape(len(out), self.nodes, -1)
        return out.reshape(len(x), -1)


class BlochBand:
    """Spectral data for one band of one periodic potential.

    Energy, gradient, Hessian and connection come from the band table. The
    first zone, [-1/2, 1/2)^d, is split into
    PATCHES_PER_AXIS^d equal patches. The first query inside a patch solves
    its PATCH_NODES[0]^d Chebyshev points (none on a patch boundary), one
    stacked `band_derivatives` call per row of n nodes, which holds n M^2
    entries per array; queries sum the Chebyshev series of the node values
    (`BandPatch`). The accessors take one momentum (d,) or a batch (N, d),
    served patch by patch. A patch whose Chebyshev tail exceeds TAIL_TOL is
    rebuilt with twice the points, and past PATCH_NODES[-1] the build raises.
    The band's gaps to its neighbors are interpolated too, and a query raises
    `DegenerateBandError` where the solver at that k would.

    The cell function and its k-derivative come with the whole
    `band_derivatives` record (`eigenpair`), solved at the momentum asked
    for, unfolded or not, behind an LRU cache of DIRECT_CACHE_SIZE momenta.
    A record keeps the (M, M) eigenvectors: 1.8 KB at the unit cosine's sized
    cutoff 7 in 1D (M = 15) and 405 KB at cosine(2)'s 7 in 2D (M = 225), so a
    full cache holds at most 6.5 MB there; a complex potential doubles both.
    The anchored gauge fixes the Bloch wave itself, so a solve at k + G gives
    exp(-i <G, y>) chi(k) with no re-indexing. A single trajectory integration
    should own its instance.

    With no cutoff, `sized_cutoff` sizes it for the energies of bands (default
    m - 2 .. m + 2, those that exist); `basis` records the choice.
    """

    def __init__(
        self, potential: FourierPotential, m: int, cutoff: int | None = None, bands: range | None = None
    ):
        if m < 1:
            raise EigensolverError(f"band index {m} must be at least 1")
        self.potential = potential
        self.m = int(m)
        if cutoff is None:
            bands = bands or range(max(1, self.m - 2), self.m + 3)
            cutoff, change = sized_cutoff(potential, self.m, bands)
            self.basis = {"cutoff": cutoff, "error_estimate": change, "tol": CUTOFF_TOL}
        else:
            self.basis = {"fixed": True, "cutoff": int(cutoff)}
        self.cutoff = int(cutoff)
        self.patches: dict[tuple, BandPatch] = {}
        self._direct = functools.lru_cache(maxsize=DIRECT_CACHE_SIZE)(
            lambda p: band_derivatives(self.potential, np.array(p), self.m, self.cutoff)
        )
        self.node_solves = 0
        self.min_gap = math.inf

    @property
    def dimension(self) -> int:
        return self.potential.dimension

    def _patch(self, index: tuple) -> BandPatch:
        """The patch at a patch index, built from node solves on first use."""
        if index in self.patches:
            return self.patches[index]
        d = self.dimension
        smooth = 1 + 2 * d + d * d  # E, grad, Hess and berry columns
        for n in PATCH_NODES:
            axes = [-0.5 + (i + 0.5 * (_chebyshev(n)[0] + 1.0)) / PATCHES_PER_AXIS for i in index]
            rows = []
            for ks in mesh(axes).reshape(-1, n, d):  # one solve per row of nodes
                self.node_solves += n
                pair = band_derivatives(self.potential, ks, self.m, self.cutoff)
                rows.append(np.column_stack([pair.energy, pair.grad, pair.hess.reshape(n, -1),
                                             pair.berry.imag, pair.gaps, pair.width]))
            patch = BandPatch(np.array(rows).reshape((n,) * d + (-1,)), smooth)
            if patch.tail <= TAIL_TOL:
                self.patches[index] = patch
                return patch
        raise EigensolverError(
            f"band {self.m} table patch {index} unresolved by {n} Chebyshev points"
            f" per axis: tail {patch.tail:.3e} above {TAIL_TOL:.0e}"
        )

    def _table(self, p) -> np.ndarray:
        """Interpolated E, grad E, Hess E, Im berry, gaps and width at p,
        or one row per momentum of p (N, d) by `_table_rows`."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if p.ndim == 2:
            return self._table_rows(p)
        d = self.dimension
        if p.shape != (d,) or not all(map(math.isfinite, p.tolist())):
            raise EigensolverError(f"quasimomentum {p} is not a finite {d}-vector")
        index, local = [], []
        for frac in p.tolist():
            scaled = (frac - math.floor(frac + 0.5) + 0.5) * PATCHES_PER_AXIS
            i = min(max(math.floor(scaled), 0), PATCHES_PER_AXIS - 1)
            index.append(i)
            local.append(2.0 * (scaled - i) - 1.0)
        values = self._patch(tuple(index)).interpolate(local)
        gap = min(values[1 + 2 * d + d * d : -1].tolist(), default=math.inf)
        _check_isolated(gap, values[-1], self.m)
        self.min_gap = min(self.min_gap, gap)
        return values

    def _table_rows(self, p: np.ndarray) -> np.ndarray:
        """`_table` at momenta (N, d): grouped by patch, one series
        evaluation per patch met, every row checked for isolation."""
        d = self.dimension
        if p.shape[1] != d or not np.all(np.isfinite(p)):
            raise EigensolverError(f"quasimomenta of shape {p.shape} are not finite {d}-vectors")
        scaled = (p - np.floor(p + 0.5) + 0.5) * PATCHES_PER_AXIS
        index = np.clip(np.floor(scaled), 0, PATCHES_PER_AXIS - 1)
        local = 2.0 * (scaled - index) - 1.0
        keys, group = np.unique(index.astype(int), axis=0, return_inverse=True)
        values = np.empty((len(p), self._patch(tuple(keys[0].tolist())).coeffs.shape[-1]))
        for g, key in enumerate(map(tuple, keys.tolist())):
            rows = group.ravel() == g
            values[rows] = self._patch(key).interpolate_rows(local[rows])
        gaps = values[:, 1 + 2 * d + d * d : -1].min(axis=1, initial=math.inf)
        first = int(np.argmax(gaps < GAP_TOL_RELATIVE * np.maximum(values[:, -1], 1.0)))  # 0 if none
        _check_isolated(float(gaps[first]), float(values[first, -1]), self.m)
        self.min_gap = min(self.min_gap, float(gaps.min()))
        return values

    def energy(self, p) -> float:
        return self._table(p)[..., 0]

    def grad_energy(self, p) -> np.ndarray:
        return self._table(p)[..., 1 : 1 + self.dimension]

    def hess_energy(self, p) -> np.ndarray:
        return self.hess_and_berry(p)[0]

    def berry(self, p) -> np.ndarray:
        return self.hess_and_berry(p)[1]

    def hess_and_berry(self, p) -> tuple:
        """`hess_energy` and `berry` at p from one table read."""
        d = self.dimension
        values = self._table(p)
        hess = values[..., 1 + d : 1 + d + d * d].reshape(values.shape[:-1] + (d, d))
        return hess, 1j * values[..., 1 + d + d * d : 1 + 2 * d + d * d]

    def table_summary(self) -> dict:
        """Band-table monitor: the basis record, patches built, node solves,
        the worst Chebyshev tail and the smallest interpolated gap met so far."""
        return {
            "basis": self.basis,
            "patches": len(self.patches),
            "node_solves": self.node_solves,
            "max_tail": max((patch.tail for patch in self.patches.values()), default=0.0),
            "min_gap": self.min_gap if math.isfinite(self.min_gap) else None,
        }

    def eigenpair(self, p) -> BlochEigenpair:
        """`band_derivatives` at the momentum p (anchored gauge), cached."""
        return self._direct(tuple(np.atleast_1d(np.asarray(p, dtype=float)).tolist()))

    def eigenpairs(self, ps) -> list:
        """`band_derivatives` at each momentum of ps (N, d) from one stacked solve, split into
        one record per momentum; none enters the `eigenpair` cache."""
        stack = band_derivatives(self.potential, np.asarray(ps, dtype=float), self.m, self.cutoff)
        rows = {name: v for name, v in vars(stack).items() if isinstance(v, np.ndarray)}
        return [replace(stack, **{name: v[i] for name, v in rows.items()}) for i in range(len(ps))]

    def derivatives(self, p) -> BlochEigenpair:
        """The `eigenpair` record. No run calls it; the benchmark tracer wraps
        it by name, so it stays until the tracer no longer does."""
        return self.eigenpair(p)

