"""Desk-scale spectral calculus on periodic grids.

Continuous eigenfamilies (Dirac, Fourier, explicit kernels) discretized on
truncated uniform lattices; operators applied by expansion in
eigen-coordinates; a measure-style functional calculus over the eigenvalue
system; equation solving by thresholded symbol division; and Green kernel
families certified by weak probe pairings.
"""

from .errors import *
from .grid import *
from .families import *
from .spectral import *
from .solver import *
from .green import *
from .oracle import *

__version__ = "0.1.0"
