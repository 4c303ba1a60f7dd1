"""Numerical laboratory for fourth-power norms of spherical harmonics on the 2-sphere.

Layers, bottom up, each importing only the ones before it: ``legendre``
(stable normalized recurrences), ``sphere`` (unit vectors, circle frames,
rotations), ``quadrature`` (band-exact grids and field norms), ``harmonics``
(basis evaluation and the kernel identities), ``random_bases`` (Haar
unitaries and quartic norms), ``beams`` (separated beam families),
``experiments`` (every experiment the command line runs, fits, file output),
``cli`` (the command line tool).

Each module's ``__all__`` is the one list of its public names; the package
exports their union.
"""

from . import beams, experiments, harmonics, legendre, quadrature, random_bases, sphere
from ._version import __version__
from .legendre import *
from .sphere import *
from .quadrature import *
from .harmonics import *
from .random_bases import *
from .beams import *
from .experiments import *

__all__ = [
    "__version__",
    *legendre.__all__,
    *sphere.__all__,
    *quadrature.__all__,
    *harmonics.__all__,
    *random_bases.__all__,
    *beams.__all__,
    *experiments.__all__,
]
