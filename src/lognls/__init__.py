"""Ground states, symmetry breaking and orbital stability for the 1D
logarithmic Schrodinger equation with an attractive delta-prime defect.

Layers:

* :mod:`lognls.corefn` - special functions (the convex splitting
  of s^2 log s^2, its Lipschitz clamping, the Gaussian tail integral,
  the Luxemburg norm).
* :mod:`lognls.stationary` - the standing-wave pair system, its
  pitchfork at gamma = 2, closed-form masses/actions and bounds.
* :mod:`lognls.fields` - staggered-grid fields, energy functionals,
  the constrained action minimizer with its Newton finish, the Morse
  index and orbital distances.
* :mod:`lognls.dynamics` - Strang/Crank-Nicolson time stepping and the
  random-perturbation stability experiment.
* :mod:`lognls.cli` - the ``lognls`` command-line tool.

The package namespace is the ``__all__`` of the four numerical modules.
"""

from .corefn import *
from .dynamics import *
from .fields import *
from .stationary import *

__version__ = "0.1.0"
