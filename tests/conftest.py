import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from blochpacket.bloch import BlochBand
from blochpacket.flow import QuadraticPotential
from blochpacket.lattice import FourierPotential

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cosine1d():
    return FourierPotential.cosine(1, 1.0)


@pytest.fixture(scope="session")
def mathieu_band(cosine1d):
    # ground band of -1/2 d^2/dy^2 + cos(y) on the 2 pi cell, shared so the
    # eigensolve cache survives across tests
    return BlochBand(cosine1d, 1, 32)


@pytest.fixture(scope="session")
def free_band():
    return BlochBand(FourierPotential.zero(1), 1, 16)


def l2_grid(values: np.ndarray, dvol: float) -> float:
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * dvol))


def harmonic(dimension: int, strength: float = 1.0) -> QuadraticPotential:
    """The external well V(x) = strength |x|^2 / 2."""
    return QuadraticPotential.create(dimension, hessian=strength * np.eye(dimension))


class QuadraticBand:
    """Analytic dispersion E(k) = |k|^2 / 2, used to exercise the flow alone."""

    def __init__(self, dimension: int = 1):
        self.dimension = dimension

    def energy(self, p) -> float:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return float(0.5 * np.dot(p, p))

    def grad_energy(self, p) -> np.ndarray:
        return np.atleast_1d(np.asarray(p, dtype=float)).copy()

    def hess_energy(self, p) -> np.ndarray:
        """Identity at one momentum (d,), or at each of momenta (N, d)."""
        return np.broadcast_to(np.eye(self.dimension), np.shape(p)[:-1] + (self.dimension,) * 2)

    def berry(self, p) -> np.ndarray:
        return np.zeros(np.shape(p), dtype=complex)


class ConstantCoefficients:
    """Fixed M, Q, beta at every time, in the array API of
    `HomogenizedCoefficients`: N times give (N, d, d), (N, d, d) and (N,)."""

    def __init__(self, dispersion, vhess, berry_rate: complex = 0.0):
        self._m = np.atleast_2d(np.asarray(dispersion, dtype=float))
        self._q = np.atleast_2d(np.asarray(vhess, dtype=float))
        self._beta = complex(berry_rate)

    def dispersion(self, t) -> np.ndarray:
        return np.broadcast_to(self._m, np.shape(t) + self._m.shape)

    def vhess(self, t) -> np.ndarray:
        return np.broadcast_to(self._q, np.shape(t) + self._q.shape)

    def berry_rate(self, t) -> np.ndarray:
        return np.full(np.shape(t), self._beta)
