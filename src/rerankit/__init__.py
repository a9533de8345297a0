"""rerankit: neighbor-based re-ranking toolkit for embedding retrieval.

Enhances embedding features with multi-order neighbor aggregation,
refines query-gallery distance matrices through asymmetric similarity
subtraction, and evaluates retrieval runs with CMC/mAP. Includes a
seeded synthetic data generator and a multi-command CLI.
"""

__version__ = "0.1.0"

from .enhance import DmonConfig, NeighborOrders, enhance
from .matrix_ops import TopKResult, l2_normalize_rows, pairwise_sq_euclidean, topk_smallest
from .metrics import EvalReport, SampleLabels, average_precision, evaluate
from .optimize import AroConfig, optimize
from .synthetic import SynthSpec, generate

__all__ = [
    "__version__",
    "AroConfig",
    "DmonConfig",
    "EvalReport",
    "NeighborOrders",
    "SampleLabels",
    "SynthSpec",
    "TopKResult",
    "average_precision",
    "enhance",
    "evaluate",
    "generate",
    "l2_normalize_rows",
    "optimize",
    "pairwise_sq_euclidean",
    "topk_smallest",
]
