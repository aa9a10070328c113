"""diagvar: exact checks for the matrix-of-diagonals determinant.

D(X) is the square matrix whose j-th column holds the main diagonal of
X^(j-1); P(X) = det(D(X)).  The package computes P exactly over Z and Z/p,
verifies its structural identities under the anti-diagonal specializations,
decides F-purity of the killed hypersurface via Fedder's criterion, and
checks the companion integer-lattice facts.
"""

from .errors import *
from .polyring import *
from .polymatrix import *
from .fpurity import *
from .diagvariety import *
from .intlattice import *
from . import diagvariety, errors, fpurity, intlattice, polymatrix, polyring

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [name for m in (errors, polyring, polymatrix, fpurity, diagvariety, intlattice) for name in m.__all__]
