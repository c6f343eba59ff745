"""iqfi-lab: QFI spectra of qubit sensing protocols and their frequency
integrals, with closed-form references and bounds for cross-checking.

The package's public names are those of its modules' __all__ lists,
each declared once, there: signal_core, protocol, evolution, iqfi and
bounds."""

from .signal_core import *
from .protocol import *
from .evolution import *
from .iqfi import *
from .bounds import *

__version__ = "0.1.0"
