"""Beta Jacobi ensembles: tridiagonal models, the limiting spectral
measure of the associated Jacobi matrices, and the moment hierarchy of
the corresponding particle dynamics, with cross-verifying routes."""

__version__ = "0.1.0"

# each layer's __all__ is the one declaration of its public names; the
# package republishes them, its upper-case constants left out of __all__
from .coeffs import *
from .dynamics import *
from .ensemble import *
from .errors import *
from .hypergeom import *
from .spectral import *
from .analytic import *

__all__ = ["__version__"] + [
    name
    for layer in (coeffs, dynamics, ensemble, errors, hypergeom, spectral, analytic)
    for name in layer.__all__
    if not name.isupper()
]
