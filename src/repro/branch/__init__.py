"""Branch-prediction substrate.

The front-end domain couples each instruction-cache configuration with a
hybrid branch predictor (McFarling-style): a gshare component, a local-history
component and a metapredictor choosing between them, all held as flat tables
in one :class:`HybridPredictor` whose ``predict_and_update`` predicts and
trains in one call.  Table sizes follow Tables 2 and 3 of the paper and grow
with the instruction-cache configuration.
"""

from repro.branch.hybrid import HybridPredictor, build_predictor
from repro.branch.btb import BranchTargetBuffer

__all__ = [
    "HybridPredictor",
    "build_predictor",
    "BranchTargetBuffer",
]
