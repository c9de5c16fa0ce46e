"""Beta skew-normal distribution family.

Densities, distribution functions, quantiles, seeded samplers, and a
verification harness for the skew-normal, its Balakrishnan extensions,
the beta-generated normal variants, and the beta skew-normal that ties
them together.

The package exports what its layer modules list in their own __all__,
in layer order: special functions, quadrature, the distribution base,
the Balakrishnan families, the skew-normal, the beta-generated
families, the beta skew-normal, order statistics, the reference moment
grid and the check suites.  Names outside those lists stay importable
from their modules.
"""

from . import balakrishnan, betafamily, bsn, checks, core, orderstats, quadrature, reference, skewnormal, special
from .special import *
from .quadrature import *
from .core import *
from .balakrishnan import *
from .skewnormal import *
from .betafamily import *
from .bsn import *
from .orderstats import *
from .reference import *
from .checks import *

__all__ = [
    *special.__all__,
    *quadrature.__all__,
    *core.__all__,
    *balakrishnan.__all__,
    *skewnormal.__all__,
    *betafamily.__all__,
    *bsn.__all__,
    *orderstats.__all__,
    *reference.__all__,
    *checks.__all__,
]

__version__ = "0.1.0"
