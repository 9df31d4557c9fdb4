"""tubeloss: impedance-tube transmission loss and two-room insertion loss toolkit.

Four-microphone pressure spectra go through plane-wave decomposition, a
one-load transfer-matrix reconstruction, and indicator extraction; two-room
sound pressure level tables yield insertion loss per third-octave band.
Analytic layer models and a seeded synthetic bench double as verification
oracles for the whole pipeline.
"""
from . import bands, core, decompose, errors, models, pipeline, synth, transfer
from .bands import *
from .core import *
from .decompose import *
from .errors import *
from .models import *
from .pipeline import *
from .synth import *
from .transfer import *

__version__ = "0.1.0"

# each module's __all__ is its one list of public names; static checkers read these += forms
__all__ = ["__version__"]
__all__ += core.__all__
__all__ += decompose.__all__
__all__ += transfer.__all__
__all__ += pipeline.__all__
__all__ += models.__all__
__all__ += bands.__all__
__all__ += synth.__all__
__all__ += errors.__all__
