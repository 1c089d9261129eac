import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blochpacket.errors import PotentialError
from blochpacket.lattice import FourierPotential, LatticeSpec

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_cubic_dual_basis_is_reciprocal():
    lat = LatticeSpec.cubic(1)
    assert np.array_equal(lat.basis, [[2.0 * np.pi]])
    assert np.array_equal(lat.dual_vectors(np.array([[-2], [3]])), [[-2.0], [3.0]])
    lat2 = LatticeSpec.cubic(2)
    # <eta_i, g_j> = 2 pi delta_ij
    assert np.allclose(lat2.basis @ lat2.dual_vectors(np.eye(2, dtype=int)).T, 2.0 * np.pi * np.eye(2))


def test_cell_volume():
    assert LatticeSpec.cubic(1).cell_volume == 2.0 * np.pi
    assert LatticeSpec.cubic(2).cell_volume == (2.0 * np.pi) ** 2


@given(p=finite)
def test_fold_reconstruction_1d(p):
    lat = LatticeSpec.cubic(1)
    folded, winding = lat.fold(np.array([p]))
    # dual lattice is Z: folded + integer winding rebuilds p exactly
    assert winding.dtype.kind == "i"
    assert np.allclose(folded + winding, p, atol=1e-12)
    assert -0.5 - 1e-12 <= folded[0] < 0.5 + 1e-12


@given(px=finite, py=finite)
def test_fold_reconstruction_2d(px, py):
    lat = LatticeSpec.cubic(2)
    p = np.array([px, py])
    folded, winding = lat.fold(p)
    assert np.allclose(folded + winding, p, atol=1e-10)
    assert np.all(np.abs(folded) <= 0.5 + 1e-12)


def test_fold_idempotent():
    lat = LatticeSpec.cubic(1)
    folded, _ = lat.fold(np.array([3.7]))
    again, w = lat.fold(folded)
    assert np.allclose(folded, again)
    assert np.all(w == 0)


def test_cosine_coefficients():
    pot = FourierPotential.cosine(1, 2.0)
    coeffs = dict(pot.coeffs)
    assert coeffs[(1,)] == pytest.approx(1.0)
    assert coeffs[(-1,)] == pytest.approx(1.0)
    assert (0,) not in coeffs
    assert pot.is_real_matrix


def test_zero_potential():
    pot = FourierPotential.zero(2)
    assert pot.cutoff == 0
    vals = pot.evaluate(LatticeSpec.cubic(2), np.zeros((5, 2)))
    assert np.allclose(vals, 0.0)


def test_from_coeffs_rejects_non_hermitian():
    # V(-n) must equal conj(V(n)) for a real potential
    with pytest.raises(PotentialError):
        FourierPotential.from_coeffs({(1,): 0.5, (-1,): 0.25}).validate()


def test_evaluate_cosine_matches_closed_form(lattice1d):
    pot = FourierPotential.cosine(1, 1.0)
    y = np.linspace(-7.0, 7.0, 101)
    assert np.allclose(pot.evaluate(lattice1d, y), np.cos(y), atol=1e-13)


@given(shift=st.integers(min_value=-3, max_value=3), y=finite)
def test_evaluate_periodicity(shift, y):
    lat = LatticeSpec.cubic(1)
    pot = FourierPotential.from_coeffs({(1,): 0.5, (-1,): 0.5, (2,): 0.1j, (-2,): -0.1j})
    a = pot.evaluate(lat, np.array([y]))
    b = pot.evaluate(lat, np.array([y + 2.0 * np.pi * shift]))
    assert np.allclose(a, b, atol=1e-10)


def test_evaluate_accepts_scalar_shape_in_1d(lattice1d):
    pot = FourierPotential.cosine(1, 1.0)
    flat = pot.evaluate(lattice1d, np.array([0.3, 0.7]))
    shaped = pot.evaluate(lattice1d, np.array([[0.3], [0.7]]))
    assert np.allclose(flat, shaped.ravel())


def test_evaluate_real_for_hermitian_coeffs(lattice1d):
    pot = FourierPotential.from_coeffs({(2,): 0.3 + 0.4j, (-2,): 0.3 - 0.4j})
    vals = pot.evaluate(lattice1d, np.linspace(0, 6, 50))
    assert np.max(np.abs(np.imag(vals))) < 1e-14
