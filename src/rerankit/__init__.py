"""rerankit: neighbor-based re-ranking toolkit for embedding retrieval.

Enhances embedding features with multi-order neighbor aggregation,
refines query-gallery distance matrices through asymmetric similarity
subtraction, and evaluates retrieval runs with CMC/mAP. Includes a
seeded synthetic data generator and a multi-command CLI.
"""

__version__ = "0.1.0"

from .enhance import DmonConfig
from .metrics import EvalReport, Evaluator, SampleLabels, average_precision, evaluate
from .optimize import AroConfig
from .synthetic import SynthSpec, generate

__all__ = [
    "__version__",
    "AroConfig",
    "DmonConfig",
    "EvalReport",
    "Evaluator",
    "SampleLabels",
    "SynthSpec",
    "average_precision",
    "evaluate",
    "generate",
]
