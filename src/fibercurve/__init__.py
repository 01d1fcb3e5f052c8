"""fibercurve: level curves of concave-convex variational problems.

The library studies functionals with a coercive part N, a concave-exponent
part A, and a convex-exponent part B (exponents 1 < alpha < eta < beta) where
the multiplier lambda is the unknown: prescribing the energy value c turns
lambda into a function of the state, and its constrained extrema over cones
trace curves c -> lambda.  The package provides the scalar fibering analysis
along rays, discretized model problems on grids, the sphere optimizers, curve
tracing with shape verdicts, and a CLI producing CSV/JSON/SVG artifacts.

The package exports every name a public module lists in its __all__, and
only those: each module's __all__ is the one list of its public names.  The
scalar root-finding kernels along one ray (fibercurve._kernels, plain Python
on floats) and the command line (fibercurve.cli) are not exported.
"""

from . import curve_tracer, fibering, functional_core, model_problems, nehari_minmax, reporting
from .curve_tracer import *  # noqa: F403
from .fibering import *  # noqa: F403
from .functional_core import *  # noqa: F403
from .model_problems import *  # noqa: F403
from .nehari_minmax import *  # noqa: F403
from .reporting import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (curve_tracer, fibering, functional_core, model_problems, nehari_minmax, reporting)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
