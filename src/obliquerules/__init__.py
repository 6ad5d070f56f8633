"""Small additive rule ensembles with sparse oblique conditions."""

from .core import (
    FitStage,
    FitTrace,
    Rule,
    RuleEnsemble,
    SparseProposition,
    Standardizer,
    Task,
)
from .losses import LossKind, gradient, init_intercept, loss

__version__ = "0.1.0"

from .datasets import DataError, Dataset, load_csv, write_csv  # noqa: E402
from .lltboost import LLTConfig  # noqa: E402
from .lltboost import fit as fit_lltboost  # noqa: E402
from .tgb import TGBConfig  # noqa: E402
from .tgb import fit as fit_tgb  # noqa: E402
from .evaluation import (  # noqa: E402
    INF,
    ProtocolConfig,
    run_benchmark,
)
from .serialize import ModelFile, load_model, save_model  # noqa: E402

__all__ = [
    "DataError",
    "Dataset",
    "FitStage",
    "FitTrace",
    "INF",
    "LLTConfig",
    "LossKind",
    "ModelFile",
    "ProtocolConfig",
    "Rule",
    "RuleEnsemble",
    "SparseProposition",
    "Standardizer",
    "TGBConfig",
    "Task",
    "fit_lltboost",
    "fit_tgb",
    "gradient",
    "init_intercept",
    "load_csv",
    "load_model",
    "loss",
    "run_benchmark",
    "save_model",
    "write_csv",
]
