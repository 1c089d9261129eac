import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blochpacket.bloch import cell_volume
from blochpacket.errors import PotentialError
from blochpacket.lattice import FourierPotential, LatticeSpec

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_cell_volume():
    # the cell [0, 2 pi)^d of the lattice (2 pi Z)^d, exactly
    assert cell_volume(1) == 2.0 * np.pi
    assert cell_volume(2) == (2.0 * np.pi) ** 2


@given(p=finite)
def test_fold_reconstruction_1d(p):
    lat = LatticeSpec(1)
    folded, winding = lat.fold(np.array([p]))
    # dual lattice is Z: folded + integer winding rebuilds p exactly
    assert winding.dtype.kind == "i"
    assert np.allclose(folded + winding, p, atol=1e-12)
    assert -0.5 - 1e-12 <= folded[0] < 0.5 + 1e-12


@given(px=finite, py=finite)
def test_fold_reconstruction_2d(px, py):
    lat = LatticeSpec(2)
    p = np.array([px, py])
    folded, winding = lat.fold(p)
    assert np.allclose(folded + winding, p, atol=1e-10)
    assert np.all(np.abs(folded) <= 0.5 + 1e-12)


def test_fold_idempotent():
    lat = LatticeSpec(1)
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


@pytest.mark.parametrize(
    "build",
    [lambda: FourierPotential.cosine(0), lambda: FourierPotential.from_coeffs({}),
     lambda: FourierPotential.zero(0)],
    ids=["cosine", "from_coeffs", "zero"],
)
def test_potential_of_no_dimension_is_rejected(build):
    with pytest.raises(PotentialError, match="dimension >= 1"):
        build()


def test_zero_potential():
    pot = FourierPotential.zero(2)
    assert pot.cutoff == 0
    vals = pot.evaluate(np.zeros((5, 2)))
    assert np.allclose(vals, 0.0)


def test_from_coeffs_rejects_non_hermitian():
    # V(-n) must equal conj(V(n)) for a real potential
    with pytest.raises(PotentialError):
        FourierPotential.from_coeffs({(1,): 0.5, (-1,): 0.25}).validate()


def test_evaluate_cosine_matches_closed_form():
    pot = FourierPotential.cosine(1, 1.0)
    y = np.linspace(-7.0, 7.0, 101)
    assert np.allclose(pot.evaluate(y), np.cos(y), atol=1e-13)


@given(shift=st.integers(min_value=-3, max_value=3), y=finite)
def test_evaluate_periodicity(shift, y):
    pot = FourierPotential.from_coeffs({(1,): 0.5, (-1,): 0.5, (2,): 0.1j, (-2,): -0.1j})
    a = pot.evaluate(np.array([y]))
    b = pot.evaluate(np.array([y + 2.0 * np.pi * shift]))
    assert np.allclose(a, b, atol=1e-10)


def test_evaluate_accepts_scalar_shape_in_1d():
    pot = FourierPotential.cosine(1, 1.0)
    flat = pot.evaluate(np.array([0.3, 0.7]))
    shaped = pot.evaluate(np.array([[0.3], [0.7]]))
    assert np.allclose(flat, shaped.ravel())


def test_evaluate_real_for_hermitian_coeffs():
    pot = FourierPotential.from_coeffs({(2,): 0.3 + 0.4j, (-2,): 0.3 - 0.4j})
    vals = pot.evaluate(np.linspace(0, 6, 50))
    assert np.max(np.abs(np.imag(vals))) < 1e-14
