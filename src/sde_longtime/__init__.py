"""Long-time strong approximation toolkit for dissipative SDEs.

Implicit (backward Euler) and projected explicit integrators for Ito
equations whose drift grows polynomially but is contractive on average,
plus the plain Euler-Maruyama scheme for contrast, coupled-noise Monte
Carlo experiments over arbitrarily long horizons, and samplers that
certify the structural assumptions the error bounds rest on.
"""

from .errors import *
from .model import *
from .noise import *
from .schemes import *
from .simulate import *
from .analysis import *

__version__ = "0.1.0"
# each `from .<module> import *` also binds <module> here
__all__ = ["__version__", *errors.__all__, *model.__all__, *noise.__all__,
           *schemes.__all__, *simulate.__all__, *analysis.__all__]
