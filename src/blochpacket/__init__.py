"""Semiclassical wave-packet propagation on Bloch bands of periodic potentials.

The package splits the problem the way the analysis does: spectral data of
the periodic operator (`bloch`), the band-driven classical flow (`flow`),
the homogenized envelope equation (`envelope`), corrector fields restoring
the expansion order (`corrector`), fine-grid synthesis (`assembly`), a
direct oscillatory solver for validation (`reference`), and experiment
pipelines plus a CLI (`config`, `experiments`, `cli`). The periodic grid,
the grid envelope's split step and the flow's Runge-Kutta loop live in `grid`.
"""

from .assembly import read_field

__version__ = "0.1.0"
