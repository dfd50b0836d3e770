"""Numerical tensor algebra for quasi-constant holomorphic curvature models.

The package builds the three curvature blocks of the model on an explicit
even-dimensional stage, applies curvature operators as derivations, checks
the resulting algebraic identities, and solves the warped boundary profiles
used to produce non-semisymmetric examples.  Each library module declares its
public names in its own ``__all__``; the package re-exports them all.
"""

from . import curvature, derivation, identities, profiles, spaces, tensors
from .curvature import *  # noqa: F403
from .derivation import *  # noqa: F403
from .identities import *  # noqa: F403
from .profiles import *  # noqa: F403
from .spaces import *  # noqa: F403
from .tensors import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (curvature, derivation, identities, profiles, spaces, tensors)
           for name in module.__all__]
