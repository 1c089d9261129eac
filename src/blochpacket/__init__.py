"""Semiclassical wave-packet propagation on Bloch bands of periodic potentials.

The package splits the problem the way the analysis does: spectral data of
the periodic operator (`bloch`), the band-driven classical flow (`flow`),
the homogenized envelope equation (`envelope`), corrector fields restoring
the expansion order (`corrector`), fine-grid synthesis (`assembly`), a
direct oscillatory solver for validation (`reference`), and experiment
pipelines plus a CLI (`config`, `experiments`, `cli`). The periodic grid
and the split-step and Runge-Kutta kernels they share live in `grid`.
"""

from .assembly import (
    GridWaveField,
    fourier_interpolate,
    make_grid_for,
    read_field,
    synthesize_app,
    synthesize_packet,
    write_field,
)
from .bloch import (
    BandDerivatives,
    BlochBand,
    BlochEigenpair,
    band_derivatives,
    build_bloch_hamiltonian,
    cell_inner,
    default_cutoff,
)
from .config import ExperimentConfig, ExternalPotentialSpec, LatticePotentialSpec
from .corrector import (
    CorrectorField,
    build_U0,
    build_U1,
    build_U2,
    solvability_defect,
)
from .envelope import (
    GaussianEnvelope,
    GridEnvelope,
    HomogenizedCoefficients,
    evolve_gaussian,
    evolve_grid_envelope,
    gaussian_eval,
    gaussian_init,
    gaussian_invariant_defects,
    grid_envelope_from_gaussian,
    sigma_norm,
)
from .errors import (
    BlochpacketError,
    ConfigError,
    DegenerateBandError,
    EigensolverError,
    EnvelopeError,
    FlowError,
    GaugeError,
    GridError,
    LatticeError,
    PotentialError,
    SolverError,
)
from .flow import (
    CosineWellPotential,
    QuadraticPotential,
    Trajectory,
    TrajectoryState,
    integrate_flow,
    total_energy,
)
from .grid import SpatialGrid
from .lattice import FourierPotential, LatticeSpec
from .reference import (
    SolverParams,
    l2_error,
    pde_residual,
    solve_schrodinger,
)

__version__ = "0.1.0"
