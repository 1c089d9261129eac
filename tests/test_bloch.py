import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpacket import bloch
from blochpacket.bloch import (
    CUTOFF_TOL,
    DIRECT_CACHE_SIZE,
    PATCHES_PER_AXIS,
    BlochBand,
    band_derivatives,
    build_bloch_hamiltonian,
    cell_inner,
    cell_volume,
    evaluate_cell_coeffs,
    pw_indices,
    reduced_resolvent_solve,
    sized_cutoff,
)
from blochpacket.errors import DegenerateBandError, EigensolverError, GaugeError
from blochpacket.lattice import FourierPotential

# Flat-band reference values for -1/2 d^2/dy^2 + cos(y), ground band.
# Oracle: plane-wave eigensolve under cutoff escalation 16 -> 32 -> 64 -> 128;
# every digit below is stable to < 2e-16 across that sweep. The zone-center
# value also matches the classical characteristic value a_0(q=4)/8 of the
# y = 2v substitution to about 1e-7 (published tables carry fewer digits).
E_GROUND_03 = -0.5333259639656098
DE_GROUND_03 = 7.995442220403e-03
D2E_GROUND_03 = -1.579279139034e-02
E_GROUND_00 = -0.5350648522878153
D2E_GROUND_00 = 5.206777024234e-02


def test_pw_indices_shape_and_order():
    idx = pw_indices(1, 3)
    assert idx.shape == (7, 1)
    assert np.all(idx.ravel() == np.arange(-3, 4))
    idx2 = pw_indices(2, 2)
    assert idx2.shape == (25, 2)
    # lexicographic: first axis slowest
    assert tuple(idx2[0]) == (-2, -2)
    assert tuple(idx2[1]) == (-2, -1)
    assert tuple(idx2[-1]) == (2, 2)


def test_hamiltonian_is_hermitian(cosine1d):
    h = build_bloch_hamiltonian(cosine1d, np.array([0.27]), 8)
    assert np.allclose(h, h.conj().T, atol=1e-14)


@given(k=st.floats(min_value=-0.45, max_value=0.45), amp=st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=15)
def test_energies_real_sorted_periodic(k, amp):
    pot = FourierPotential.cosine(1, amp)
    h = build_bloch_hamiltonian(pot, np.array([k]), 8)
    es = list(np.linalg.eigvalsh(h)[:4])
    assert all(np.isfinite(es))
    assert es == sorted(es)
    # shifting k by a dual vector leaves the spectrum unchanged
    h2 = build_bloch_hamiltonian(pot, np.array([k + 1.0]), 8)
    assert np.allclose(es, np.linalg.eigvalsh(h2)[:4], atol=1e-10)


def test_cell_normalization(cosine1d):
    pair = band_derivatives(cosine1d, np.array([0.3]), 1, 16)
    # |Y| sum |c_n|^2 = 1 so |chi| has unit cell average
    assert cell_inner(1, pair.coeffs, pair.coeffs) == pytest.approx(1.0, abs=1e-12)


def test_eigen_residual(cosine1d):
    h = build_bloch_hamiltonian(cosine1d, np.array([0.3]), 32)
    pair = band_derivatives(cosine1d, np.array([0.3]), 1, 32)
    res = h @ pair.coeffs - pair.energy * pair.coeffs
    assert np.linalg.norm(res) < 1e-12


@pytest.mark.parametrize(
    "dimension, potential, cutoff",
    [(1, FourierPotential.cosine(1, 1.0), 32), (2, FourierPotential.cosine(2), 4)],
)
def test_record_keeps_the_eigendecomposition(dimension, potential, cutoff):
    # the record's evals and evecs diagonalize the H(k) they were solved for
    k = np.full(dimension, 0.3)
    pair = band_derivatives(potential, k, 1, cutoff)
    h = build_bloch_hamiltonian(pair.potential, pair.k, pair.cutoff)
    res = h @ pair.evecs - pair.evecs * pair.evals
    assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(h)
    assert pair.evals[0] == pair.energy


@pytest.mark.parametrize("m", [0, -1, 18])
def test_band_index_outside_range_rejected(cosine1d, m):
    # cutoff 8 keeps M = 17 plane waves, so bands 1..17 exist; 0 and -1
    # would otherwise index the eigenvalues from the top of the spectrum
    with pytest.raises(EigensolverError):
        band_derivatives(cosine1d, np.array([0.3]), m, 8)
    if m < 1:
        with pytest.raises(EigensolverError):
            BlochBand(cosine1d, m, 8)
    else:
        with pytest.raises(EigensolverError):
            BlochBand(cosine1d, m, 8).energy(np.array([0.3]))


def test_flat_band_values(mathieu_band):
    p = np.array([0.3])
    assert mathieu_band.energy(p) == pytest.approx(E_GROUND_03, abs=1e-13)
    assert mathieu_band.grad_energy(p)[0] == pytest.approx(DE_GROUND_03, abs=1e-12)
    assert mathieu_band.hess_energy(p)[0, 0] == pytest.approx(D2E_GROUND_03, abs=1e-11)
    z = np.array([0.0])
    assert mathieu_band.energy(z) == pytest.approx(E_GROUND_00, abs=1e-13)
    assert abs(mathieu_band.grad_energy(z)[0]) < 1e-12
    assert mathieu_band.hess_energy(z)[0, 0] == pytest.approx(D2E_GROUND_00, abs=1e-11)


def test_band_symmetry_under_k_reflection(mathieu_band):
    # real potential: E(-k) = E(k), gradient odd
    p = np.array([0.21])
    assert mathieu_band.energy(p) == pytest.approx(mathieu_band.energy(-p), abs=1e-13)
    assert mathieu_band.grad_energy(p)[0] == pytest.approx(
        -mathieu_band.grad_energy(-p)[0], abs=1e-12
    )


def test_hellmann_feynman_vs_finite_differences(cosine1d):
    h = 1e-4
    for k in (0.05, 0.3, -0.41):
        pair = band_derivatives(cosine1d, np.array([k]), 1, 32)

        def e(kk):
            p = band_derivatives(cosine1d, np.array([kk]), 1, 32)
            return p.energy

        fd_grad = (e(k + h) - e(k - h)) / (2 * h)
        fd_hess = (e(k + h) - 2 * e(k) + e(k - h)) / h**2
        assert pair.grad[0] == pytest.approx(fd_grad, abs=1e-8)
        assert pair.hess[0, 0] == pytest.approx(fd_hess, abs=1e-6)


def test_berry_matches_finite_difference_connection(cosine1d):
    # berry = <chi, d_k chi> of the anchored gauge, against i Im <chi, D chi>
    # with D the centred difference of the anchored cell functions
    h = 1e-5
    for k in (0.0, 0.17, 0.3, 0.49, -0.49):
        pair = band_derivatives(cosine1d, np.array([k]), 1, 32)
        pp = band_derivatives(cosine1d, np.array([k + h]), 1, 32)
        pm = band_derivatives(cosine1d, np.array([k - h]), 1, 32)
        fd = cell_inner(1, pair.coeffs, (pp.coeffs - pm.coeffs) / (2 * h))
        assert abs(pair.berry[0].real) < 1e-12
        assert pair.berry[0] == pytest.approx(1j * fd.imag, abs=1e-6)


def test_anchored_gauge_is_continuous_across_the_zone_edge(mathieu_band):
    # the unfolded cell function is continuous where the folding winds
    # (unit 2-norm scaling)
    scale = np.sqrt(cell_volume(1))
    below = mathieu_band.eigenpair(np.array([0.5 - 1e-6])).coeffs * scale
    above = mathieu_band.eigenpair(np.array([0.5 + 1e-6])).coeffs * scale
    assert np.max(np.abs(below - above)) <= 1e-4


def test_anchored_connection_of_the_unit_cosine_is_constant(mathieu_band):
    # the cell is symmetric about y0 = pi, where band 1 peaks, so the
    # connection is the constant -i pi: the Zak phase pi spread evenly
    for k in (0.0, 0.21, -0.37, 0.49):
        assert mathieu_band.berry(np.array([k]))[0] == pytest.approx(-1j * np.pi, abs=1e-9)


def test_anchor_below_the_floor_raises_gauge_error(cosine1d, monkeypatch):
    # no unit-norm Bloch wave reaches modulus 10 at the anchor point
    monkeypatch.setattr(bloch, "ANCHOR_FLOOR", 10.0)
    with pytest.raises(GaugeError, match=r"modulus \S+ below 1e\+01 at k = \[0\.3\]"):
        band_derivatives(cosine1d, np.array([0.3]), 1, 16)


@pytest.mark.parametrize("m", [2, 3])
def test_anchor_of_a_band_degenerate_at_zone_corners_does_not_depend_on_the_cutoff(m):
    # bands 2 and 3 of cos y1 + cos y2 are degenerate at k = 0 and (1/2, 1/2),
    # where eigh returns an arbitrary vector of the pair; the anchor reads only
    # the corners where the band is simple, so it is one point at every cutoff
    potential = FourierPotential.cosine(2)
    for cutoff in (4, 7, 8, 12):
        assert np.allclose(bloch._anchor_point(potential, m, cutoff), 0.75 * np.pi)


def test_band_simple_at_no_zone_corner_has_no_anchor():
    # band 2 of the free lattice meets band 1 at k = 1/2 and band 3 at k = 0
    with pytest.raises(GaugeError, match="^band 2 is simple at no zone corner; no anchor point$"):
        band_derivatives(FourierPotential.zero(1), np.array([0.3]), 2, 4)


def test_dk_coeffs_orthogonality_real_part(cosine1d):
    # Re<chi, d_k chi> = 0 under the normalization constraint
    pair = band_derivatives(cosine1d, np.array([0.3]), 1, 32)
    val = cell_inner(pair.dimension, pair.coeffs, pair.dk_coeffs[0])
    assert abs(val.real) < 1e-12


def test_dk_coeffs_match_finite_difference_cell_functions(cosine1d):
    # compare d_k chi, phase rate included, against a centered difference of
    # the anchored eigenvectors evaluated at sample points in the cell
    k, h = 0.3, 1e-5
    pair = band_derivatives(cosine1d, np.array([k]), 1, 32)
    pp = band_derivatives(cosine1d, np.array([k + h]), 1, 32)
    pm = band_derivatives(cosine1d, np.array([k - h]), 1, 32)
    y = np.linspace(0.0, 2.0 * np.pi, 13)
    fd = (
        evaluate_cell_coeffs(1, pp.cutoff, pp.coeffs, y)
        - evaluate_cell_coeffs(1, pm.cutoff, pm.coeffs, y)
    ) / (2 * h)
    direct = evaluate_cell_coeffs(1, pair.cutoff, pair.dk_coeffs[0], y)
    assert np.max(np.abs(fd - direct)) < 1e-5


def test_reduced_resolvent_solve_properties(cosine1d):
    h = build_bloch_hamiltonian(cosine1d, np.array([0.3]), 16)
    pair = band_derivatives(cosine1d, np.array([0.3]), 1, 16)
    chi_unit = pair.coeffs / np.linalg.norm(pair.coeffs)
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    evals, evecs = np.linalg.eigh(h)
    x = reduced_resolvent_solve(h, evals, evecs, 1, rhs)
    # solution is orthogonal to chi and solves the projected system
    assert abs(np.vdot(chi_unit, x)) < 1e-10
    proj_rhs = rhs - chi_unit * np.vdot(chi_unit, rhs)
    assert np.linalg.norm((h - pair.energy * np.eye(h.shape[0])) @ x - proj_rhs) < 1e-9
    # right-hand sides in columns are solved column by column
    batch = reduced_resolvent_solve(h, evals, evecs, 1, np.stack([rhs, 1j * rhs], axis=-1))
    assert np.max(np.abs(batch - np.stack([x, 1j * x], axis=-1))) < 1e-12


def test_free_lattice_parabolas(free_band):
    for k in (0.0, 0.17, -0.33, 0.49):
        p = np.array([k])
        assert free_band.energy(p) == pytest.approx(0.5 * k * k, abs=1e-12)
        assert free_band.grad_energy(p)[0] == pytest.approx(k, abs=1e-12)
        assert free_band.hess_energy(p)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_free_lattice_zone_edge_is_degenerate(free_band):
    with pytest.raises(DegenerateBandError):
        free_band.energy(np.array([0.5]))


def _rows_match_scalar_lookups(band, ps):
    rows = band._table_rows(ps)
    scalar = np.array([band._table(p) for p in ps])
    assert rows.shape == scalar.shape
    assert np.all(np.abs(rows - scalar) <= 1e-15 * np.maximum(1.0, np.abs(scalar)))


def test_batched_table_matches_single_lookups(mathieu_band):
    # both halves of the zone, its edges, folded momenta and the Chebyshev
    # nodes of two patches, where the interpolant must hit the node values
    nodes = bloch._chebyshev(16)[0]
    fracs = np.concatenate([
        np.linspace(-0.5, 0.5, 41),
        [0.4999999, -0.7, 1.3],
        -0.5 + (2 + 0.5 * (nodes + 1.0)) / PATCHES_PER_AXIS,
        -0.5 + (6 + 0.5 * (nodes + 1.0)) / PATCHES_PER_AXIS,
    ])
    ps = fracs[:, None]
    _rows_match_scalar_lookups(mathieu_band, ps)
    hess = mathieu_band.hess_energy(ps)
    berry = mathieu_band.berry(ps)
    assert hess.shape == (fracs.size, 1, 1) and berry.shape == (fracs.size, 1)
    assert np.allclose(hess[3], mathieu_band.hess_energy(ps[3]), rtol=0, atol=1e-15)
    assert np.allclose(berry[3], mathieu_band.berry(ps[3]), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "potential, m",
    [
        (FourierPotential.cosine(1), 1),
        (FourierPotential.cosine(1), 2),
        (FourierPotential.from_coeffs({1: 0.5, -1: 0.5, 2: -0.2j, -2: 0.2j}), 1),
        (FourierPotential.cosine(1, 0.3), 1),
    ],
    ids=["cosine-1", "cosine-2", "tilted", "cosine-0.3"],
)
def test_table_reproduces_its_node_solves(potential, m):
    # the series takes the node values at the nodes: both lookups against
    # the solver at the Chebyshev nodes of the first, an inner and the last
    # patch, to rounding
    band = BlochBand(potential, m)
    for index in (0, 3, PATCHES_PER_AXIS - 1):
        nodes = bloch._chebyshev(band._patch((index,)).nodes)[0]
        fracs = -0.5 + (index + 0.5 * (nodes + 1.0)) / PATCHES_PER_AXIS
        ps = fracs[:, None]
        solved = []
        for p in ps:
            pair = band_derivatives(potential, p, m, band.cutoff)
            solved.append(np.concatenate([
                [pair.energy], pair.grad, pair.hess.ravel(), pair.berry.imag, pair.gaps,
                [pair.width],
            ]))
        solved = np.array(solved)
        for table in (band._table_rows(ps), np.array([band._table(p) for p in ps])):
            assert np.all(np.abs(table - solved) <= 1e-13 * np.maximum(1.0, np.abs(solved)))


def test_batched_table_matches_single_lookups_2d():
    # cutoff 4 keeps the 2D patches cheap; the batch spans four patches
    band = BlochBand(FourierPotential.cosine(2), 1, 4)
    rng = np.random.default_rng(9)
    ps = np.concatenate([rng.uniform(-0.125, 0.125, size=(12, 2)), [[0.0, 0.0], [0.1, -0.1]]])
    _rows_match_scalar_lookups(band, ps)
    assert len(band.patches) == 4
    assert band.hess_energy(ps).shape == (14, 2, 2)


def test_degenerate_row_inside_a_batch_raises(free_band):
    ps = np.array([[0.1], [0.3], [0.5], [-0.2]])
    with pytest.raises(DegenerateBandError):
        free_band.hess_energy(ps)
    assert free_band.hess_energy(ps[[0, 1, 3]]).shape == (3, 1, 1)


def test_band_cache_unfolds_momenta(mathieu_band):
    # energy is periodic under dual shifts; cell coefficients re-index
    p = np.array([0.3])
    shifted = np.array([0.3 + 2.0])
    assert mathieu_band.energy(shifted) == pytest.approx(mathieu_band.energy(p), abs=1e-13)
    pair0 = mathieu_band.eigenpair(p)
    pair2 = mathieu_band.eigenpair(shifted)
    # chi_{k+G}(y) = exp(-i<G, y>) chi_k(y): same Bloch wave e^{iky}chi
    y = np.linspace(0.0, 2.0 * np.pi, 9)
    wave0 = np.exp(1j * p[0] * y) * evaluate_cell_coeffs(pair0.dimension, 32, pair0.coeffs, y)
    wave2 = np.exp(1j * shifted[0] * y) * evaluate_cell_coeffs(pair2.dimension, 32, pair2.coeffs, y)
    assert np.max(np.abs(wave0 - wave2)) < 1e-10


def test_band_derivatives_2d_gradient():
    pot = FourierPotential.from_coeffs(
        {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25, (0, -1): 0.25}
    )
    k = np.array([0.13, -0.21])
    pair = band_derivatives(pot, k, 1, 8)
    h = 1e-4
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        ep = band_derivatives(pot, k + step, 1, 8)
        em = band_derivatives(pot, k - step, 1, 8)
        assert pair.grad[j] == pytest.approx((ep.energy - em.energy) / (2 * h), abs=1e-7)
    assert np.allclose(pair.hess, pair.hess.T, atol=1e-10)


def _band_data(potential, k, cutoff) -> np.ndarray:
    pair = band_derivatives(potential, np.asarray(k, dtype=float), 1, cutoff)
    return np.concatenate([[pair.energy], pair.hess.ravel()])


@pytest.mark.parametrize(
    "dimension, largest, ks",
    [(1, 10, [[0.0], [0.3], [0.5]]), (2, 8, [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])],
)
def test_sized_cutoff_resolves_the_band(dimension, largest, ks):
    # band 1 of cos y1 + ... + cos yd sizes to at most `largest`, and its E and
    # Hess E there sit within CUTOFF_TOL (relative, floor 1) of a wide basis,
    # cutoff 32 in 1D and 12 in 2D; bounds set before measuring
    potential = FourierPotential.cosine(dimension)
    band = BlochBand(potential, 1)
    assert band.basis["cutoff"] == band.cutoff <= largest
    assert band.basis["error_estimate"] <= band.basis["tol"] == CUTOFF_TOL
    assert band.table_summary()["basis"] == band.basis
    wide = 32 if dimension == 1 else 12
    for k in ks:
        sized, want = (_band_data(potential, k, c) for c in (band.cutoff, wide))
        assert np.all(np.abs(sized - want) <= CUTOFF_TOL * np.maximum(1.0, np.abs(want)))
    # the unit cosine's anchor point stays y0 = pi at the sized cutoff
    assert np.allclose(bloch._anchor_point(potential, 1, band.cutoff), np.pi)


def test_sized_cutoff_is_computed_once_per_band_set(cosine1d, monkeypatch):
    # bands 1..3 of a run and 1..8 of a scan are sized apart, each once per process;
    # both caches key on the potential's value, so a potential built apart hits them
    dynamics, scan = (sized_cutoff(cosine1d, 1, range(1, stop)) for stop in (4, 9))
    assert dynamics[0] <= scan[0]
    anchor = bloch._anchor_point(cosine1d, 1, dynamics[0])
    monkeypatch.setattr(bloch, "band_derivatives", None)  # any new solve would raise
    monkeypatch.setattr(bloch, "build_bloch_hamiltonian", None)
    apart = FourierPotential.cosine(1, 1.0)
    assert apart is not cosine1d and bloch._anchor_point(apart, 1, dynamics[0]) is anchor
    assert BlochBand(apart, 1).cutoff == dynamics[0]
    assert BlochBand(apart, 1, bands=range(1, 9)).cutoff == scan[0]


@pytest.mark.parametrize("m", [2, 3, 6])
def test_sized_cutoff_holds_higher_bands(cosine1d, m):
    # the connection that a sized cutoff holds is anchored at the same point at
    # every cutoff: mirror points of the anchor search tie, and the first wins
    band = BlochBand(cosine1d, m)
    assert band.cutoff <= 12 and band.basis["error_estimate"] <= CUTOFF_TOL
    anchors = {float(bloch._anchor_point(cosine1d, m, c)[0]) for c in range(band.cutoff, 33)}
    assert len(anchors) == 1


def test_explicit_cutoff_wins(cosine1d, monkeypatch):
    monkeypatch.setattr(bloch, "sized_cutoff", None)  # sizing would raise
    band = BlochBand(cosine1d, 1, np.int64(32))
    assert band.cutoff == 32 and type(band.cutoff) is int
    assert band.basis == {"fixed": True, "cutoff": 32}


def test_unresolved_cutoff_raises(monkeypatch):
    # a tolerance no basis meets stops at MAX_PLANE_WAVES with a typed error
    monkeypatch.setattr(bloch, "CUTOFF_TOL", 0.0)
    monkeypatch.setattr(bloch, "MAX_PLANE_WAVES", 21)
    with pytest.raises(EigensolverError, match="up to 21 plane waves; set cutoff$"):
        BlochBand(FourierPotential.cosine(1, 0.7), 1)


def test_evaluate_cell_coeffs_single_mode():
    # one plane wave: c_{n=2} = 1 evaluates to exp(2iy)
    cutoff = 3
    idx = pw_indices(1, cutoff)
    coeffs = np.zeros(idx.shape[0], dtype=complex)
    coeffs[np.where(idx.ravel() == 2)[0][0]] = 1.0
    y = np.linspace(-1.0, 5.0, 23)
    assert np.allclose(evaluate_cell_coeffs(1, cutoff, coeffs, y), np.exp(2j * y))


TILTED = FourierPotential.from_coeffs({1: 0.5, -1: 0.5, 2: -0.2j, -2: 0.2j})  # cos y + 0.4 sin 2y


def _relative_dev(table, solved) -> float:
    return float(np.max(np.abs(np.asarray(table) - solved) / np.maximum(1.0, np.abs(solved))))


@pytest.mark.parametrize(
    "potential, m",
    [(FourierPotential.cosine(1, 1.0), 1), (FourierPotential.cosine(1, 1.0), 2), (TILTED, 1)],
    ids=["cosine-band1", "cosine-band2", "tilted-band1"],
)
def test_band_table_matches_direct_solves_off_node(potential, m):
    # 34 seeded probes plus six next to k = 0 and k = +-1/2, where patches meet
    near = [1e-9, -1e-9, 0.5 - 1e-9, -0.5, -0.5 + 1e-9, 0.0]
    probes = np.concatenate([np.random.default_rng(11).uniform(-0.5, 0.5, 34), near])
    band = BlochBand(potential, m, 32)
    for k in probes:
        p = np.array([k])
        pair = band_derivatives(potential, p, m, 32)
        assert _relative_dev(band.energy(p), pair.energy) <= 1e-11
        assert _relative_dev(band.grad_energy(p), pair.grad) <= 1e-11
        assert _relative_dev(band.hess_energy(p), pair.hess) <= 1e-11
        assert _relative_dev(band.berry(p), pair.berry) <= 1e-11


def test_free_lattice_parabola_is_exact_on_the_zone_edge_patch(free_band):
    for k in (0.376, 0.41, 0.45, 0.49, 0.499):
        p = np.array([k])
        assert abs(free_band.energy(p) - 0.5 * k * k) <= 1e-14
        assert abs(free_band.grad_energy(p)[0] - k) <= 1e-14
        assert abs(free_band.hess_energy(p)[0, 0] - 1.0) <= 1e-14
    assert (PATCHES_PER_AXIS - 1,) in free_band.patches


def test_unresolvable_band_raises_after_node_doubling():
    # the 0.01 gap at the zone edge bends band 1 faster than 64 points resolve
    band = BlochBand(FourierPotential.cosine(1, 0.01), 1, 32)
    with pytest.raises(EigensolverError, match="64 Chebyshev points"):
        band.energy(np.array([0.49]))
    assert band.node_solves == 16 + 32 + 64


def test_default_flow_makes_at_most_32_node_solves(monkeypatch):
    from blochpacket.config import ExperimentConfig
    from blochpacket.experiments import _flow

    calls = []
    solve = bloch.band_derivatives

    def counted(*args, **kwargs):  # one entry per momentum: a patch solves a stack of them at once
        calls.extend(np.reshape(args[1], (-1, args[0].dimension)))
        return solve(*args, **kwargs)

    cfg = ExperimentConfig()
    band = cfg.make_band()  # sizing the cutoff solves at the zone corners, once per process
    monkeypatch.setattr(bloch, "band_derivatives", counted)
    _flow(cfg, cfg.t_final, band, cfg.make_external())
    assert len(calls) <= 32
    assert band.node_solves == len(calls)


def test_eigenpair_cache_is_bounded(cosine1d):
    band = BlochBand(cosine1d, 1, 8)
    for k in np.linspace(-0.5, 0.5, 1000, endpoint=False):
        band.eigenpair(np.array([k]))
    assert band._direct.cache_info().currsize <= DIRECT_CACHE_SIZE


def test_band_table_2d_matches_direct_solve():
    pot = FourierPotential.from_coeffs(
        {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25, (0, -1): 0.25}
    )
    band = BlochBand(pot, 1, 4)
    k = np.array([0.13, -0.21])
    pair = band_derivatives(pot, k, 1, 4)
    assert _relative_dev(band.energy(k), pair.energy) <= 1e-11
    assert _relative_dev(band.grad_energy(k), pair.grad) <= 1e-11
    assert _relative_dev(band.hess_energy(k), pair.hess) <= 1e-11
    assert _relative_dev(band.berry(k), pair.berry) <= 1e-11


RECORD_ARRAYS = ("k", "energy", "coeffs", "grad", "hess", "dk_coeffs", "berry", "gaps", "width", "evals", "evecs")


@pytest.mark.parametrize(
    "potential, m, cutoff, ks",
    [
        (FourierPotential.cosine(1), 1, 7, np.linspace(-0.49, 0.49, 16)[:, None]),
        (TILTED, 2, 9, np.linspace(-0.3, 0.45, 5)[:, None]),
        (FourierPotential.cosine(2), 1, 3, [[0.1, -0.2], [0.3, 0.05], [-0.45, 0.4]]),
    ],
    ids=["cosine-1d", "tilted-band2", "cosine-2d"],
)
def test_stacked_solve_matches_one_at_a_time_solves(potential, m, cutoff, ks):
    # one record with a leading N axis, field by field against a (d,) solve per
    # row; bound set before measuring: bit-identical or within 1e-15 relative
    ks = np.asarray(ks, dtype=float)
    stacked = band_derivatives(potential, ks, m, cutoff)
    assert stacked.evecs.shape[0] == len(ks) and stacked.m == m and stacked.cutoff == cutoff
    for i, k in enumerate(ks):
        single = band_derivatives(potential, k, m, cutoff)
        for name in RECORD_ARRAYS:
            got, want = getattr(stacked, name)[i], getattr(single, name)
            assert np.shape(got) == np.shape(want)
            assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want))), name
    h = build_bloch_hamiltonian(potential, ks, cutoff)
    assert h.dtype == (float if potential.is_real_matrix else complex) and h.shape == (len(ks),) + (stacked.evecs.shape[-1],) * 2
    assert all(np.array_equal(h[i], build_bloch_hamiltonian(potential, k, cutoff)) for i, k in enumerate(ks))


def test_stacked_resolvent_matches_one_solve_per_node(cosine1d):
    # (N, M, M) Hamiltonians with (N, M) and (N, M, R) right-hand sides
    ks = np.array([[0.1], [0.3], [-0.4]])
    pair = band_derivatives(cosine1d, ks, 2, 8)
    h = build_bloch_hamiltonian(cosine1d, ks, 8)
    rhs = np.random.default_rng(3).normal(size=(3, h.shape[-1], 2)) + 0j
    columns = reduced_resolvent_solve(h, pair.evals, pair.evecs, 2, rhs)
    vectors = reduced_resolvent_solve(h, pair.evals, pair.evecs, 2, rhs[..., 0])
    for i in range(3):
        one = reduced_resolvent_solve(h[i], pair.evals[i], pair.evecs[i], 2, rhs[i])
        assert np.allclose(columns[i], one, rtol=0, atol=1e-14)
        assert np.allclose(vectors[i], one[:, 0], rtol=0, atol=1e-14)


def test_each_check_raises_inside_a_stack_and_names_its_node(cosine1d, monkeypatch):
    # band 1 of the free lattice meets band 2 at the zone edge k = 1/2
    free = FourierPotential.zero(1)
    with pytest.raises(DegenerateBandError, match=r"^band 1 gap \S+ below .* at k = \[0\.5\]$"):
        band_derivatives(free, np.array([[0.1], [-0.3], [0.5], [0.2], [-0.5]]), 1, 4)
    with pytest.raises(EigensolverError, match=r"^band index 10 outside \[1, 9\] at k = \[0\.1\]$"):
        band_derivatives(free, np.array([[0.1], [0.5]]), 10, 4)
    # the unit cosine's Bloch wave at y0 = pi grows from k = 0 to the zone edge; a floor
    # between the moduli at k = 0.3 and 0.2 fails the stack's nodes from 0.2 on
    ks = np.array([[0.4], [0.3], [0.2], [0.1]])
    pair = band_derivatives(cosine1d, ks, 1, 8)
    moduli = np.abs(np.sum(pair.coeffs * np.exp(1j * (pw_indices(1, 8)[:, 0] + ks) * np.pi), axis=1))
    moduli *= np.sqrt(cell_volume(1))
    assert np.all(np.diff(moduli) < 0)
    monkeypatch.setattr(bloch, "ANCHOR_FLOOR", 0.5 * (moduli[1] + moduli[2]))
    with pytest.raises(GaugeError, match=r"^Bloch wave at the anchor point has modulus \S+ below \S+ at k = \[0\.2\]$"):
        band_derivatives(cosine1d, ks, 1, 8)
    assert band_derivatives(cosine1d, ks[:2], 1, 8).energy.shape == (2,)
    # across checks, the first failing node in node order raises, as a solve per node would
    monkeypatch.setattr(bloch, "ANCHOR_FLOOR", 10.0)
    with pytest.raises(GaugeError, match=r"at k = \[0\.1\]$"):
        band_derivatives(free, np.array([[0.1], [0.5]]), 1, 4)
    with pytest.raises(DegenerateBandError, match=r"at k = \[0\.5\]$"):
        band_derivatives(free, np.array([[0.5], [0.1]]), 1, 4)


def test_2d_patch_stacks_at_most_one_row_of_nodes(monkeypatch):
    # cutoff 3 keeps the 2D solves cheap; every stacked solve holds at most n momenta
    band = BlochBand(FourierPotential.cosine(2), 1, 3)
    stacks, solve = [], bloch.band_derivatives
    monkeypatch.setattr(bloch, "band_derivatives", lambda *args: stacks.append(np.shape(args[1])) or solve(*args))
    n = band._patch((2, 5)).nodes
    assert stacks == [(n, 2)] * n and band.node_solves == n * n


@pytest.mark.parametrize(
    "dimension, potential, m, cutoff, anchor",
    [
        (1, FourierPotential.cosine(1), 1, 7, [np.pi]),
        (1, FourierPotential.cosine(1), 2, 7, [1.9634954084936207]),
        (1, FourierPotential.cosine(1), 3, 9, [1.1780972450961724]),
        (1, TILTED, 2, 9, [4.319689898685965]),
        (2, FourierPotential.cosine(2), 1, 3, [np.pi, np.pi]),
    ],
    ids=["cosine-band1", "cosine-band2", "cosine-band3", "tilted-band2", "cosine-2d-band1"],
)
def test_anchor_from_one_stacked_corner_solve_is_pinned(monkeypatch, dimension, potential, m, cutoff, anchor):
    # the 2^d zone corners go through one stacked eigh; the anchors are exactly
    # those of one eigh per corner
    stacks, build = [], bloch.build_bloch_hamiltonian
    monkeypatch.setattr(bloch, "build_bloch_hamiltonian", lambda *args: stacks.append(np.shape(args[1])) or build(*args))
    bloch._anchor_point.cache_clear()
    assert bloch._anchor_point(potential, m, cutoff).tolist() == anchor
    assert stacks == [(2**dimension, dimension)]
