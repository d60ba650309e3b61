"""Self-supervised condition monitoring by future token prediction.

Multi-channel signal windows are split into a continuous context and, per
channel, the future target segment quantised to one token; a compact
Transformer learns to predict each channel's target token from the flattened
multi-sensor context, and the online prediction error serves as a health
index with threshold alarms.

Every name in a module's ``__all__`` is importable from here; the command
line (``lorm.cli``) is not imported.
"""

from .evaluation import *
from .model import *
from .monitor import *
from .sequence import *
from .signal_io import *
from .synth import *
from .tokenizer import *
from .train import *

__version__ = "0.1.0"
