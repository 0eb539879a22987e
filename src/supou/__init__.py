"""supOU processes: simulation and two-step GMM estimation.

The public names are exactly those listed in the submodules' `__all__`.
"""

from . import descriptive, errors, gmm, moments, params, simulate
from .errors import *  # noqa: F401,F403
from .params import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .descriptive import *  # noqa: F401,F403
from .gmm import *  # noqa: F401,F403

__all__ = (
    errors.__all__
    + params.__all__
    + moments.__all__
    + simulate.__all__
    + descriptive.__all__
    + gmm.__all__
)

__version__ = "0.1.0"
