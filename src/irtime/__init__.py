"""irtime: execution-time prediction for an LLVM IR subset.

Parse a textual IR module, simulate it with cache and branch-predictor
models attached, project the trace onto a fixed 42-component feature
vector, and train small regressors that map features to measured times.
"""

from .branch import BranchPredictorTable, PredictorState, count_bb_jump
from .cache import AccessOutcome, CacheConfig, CacheModel
from .config import PipelineConfig, config_from_dict, config_from_file
from .corpus import GENERATOR_OPCODES, generate_corpus, generate_program
from .interp import Interpreter, MemoryImage, ProbeSet, RunLimits, run
from .irparser import parse_file, parse_module
from .irmodel import IrModule, IrFunction, IrBlock, IrInstruction
from .metrics import (
    HUBER_DELTA_DEFAULT, EvalReport, SampleScore, ape, evaluate, group_of,
    huber_value, loss_huber, loss_mse, sape, score_pairs,
)
from .models import (
    ForestParams, HuberParams, Hyperparameters, MlpParams, TrainedModel,
    fit_huber, fit_linear, fit_forest, fit_mlp, load_model, predict,
    save_model, train_forest, train_huber, train_linear, train_mlp,
)
from .trace import (
    FEATURE_COUNT, FEATURE_NAMES, UNTRACKED_OPCODES, Dataset, DatasetRow,
    ExecutionTrace, FeatureVector, TraceBuilder, extract_features,
    read_features, read_labels, read_trace, write_features, write_trace,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AccessOutcome", "BranchPredictorTable", "CacheConfig", "CacheModel",
    "Dataset", "DatasetRow", "EvalReport", "ExecutionTrace",
    "HUBER_DELTA_DEFAULT", "FEATURE_COUNT",
    "FEATURE_NAMES", "UNTRACKED_OPCODES", "FeatureVector", "ForestParams",
    "GENERATOR_OPCODES",
    "HuberParams", "Hyperparameters", "Interpreter", "IrBlock", "IrFunction",
    "IrInstruction", "IrModule", "MemoryImage", "MlpParams", "PipelineConfig",
    "PredictorState", "ProbeSet", "RunLimits", "SampleScore", "TraceBuilder",
    "TrainedModel", "ape", "config_from_dict", "config_from_file",
    "count_bb_jump", "errors", "evaluate", "extract_features", "fit_forest",
    "fit_huber", "fit_linear", "fit_mlp", "generate_corpus",
    "generate_program", "group_of", "huber_value", "load_model", "loss_huber",
    "loss_mse", "parse_file", "parse_module", "predict", "read_features",
    "read_labels", "read_trace", "run", "sape", "save_model", "score_pairs",
    "train_forest", "train_huber", "train_linear", "train_mlp",
    "write_features", "write_trace",
]
