"""Per-node mean and variance estimation for additive path models.

A record is a path through a layered directed graph, one category per
column, drawn from a time-inhomogeneous Markov kernel. Its response is
the sum of independent node contributions along the path. This package
estimates each node's conditional response mean and variance under a
counterfactual path distribution, reweighting or recombining data that
was collected under a different one, with normal-limit error bars.
"""

from importlib import resources as _resources

from .asymptotics import (
    AsymptoticVariance,
    ConfidenceInterval,
    REGIME_KNOWN,
    REGIME_UNKNOWN,
    asym_var_mean_known,
    asym_var_mean_unknown,
    asym_var_variance_known,
    asym_var_variance_unknown,
    confidence_interval,
    normal_quantile,
    plugin_asym_var,
)
from .errors import (
    DaglmError,
    DataError,
    ModelError,
    NoDataError,
    StatisticalError,
)
from .estimators import (
    CellEstimate,
    cell_estimate,
)
from .model import (
    DagSpec,
    NodeQuality,
    PathDataset,
    QualityModel,
    TransitionKernel,
    conditional_path_probability,
    enumerate_support_paths,
    estimate_kernel,
    kernels_equivalent,
    node_marginal,
    uniform_kernel,
    validate_dag,
    validate_path,
)
from .modelfile import ModelFile, load_model, model_from_dict, model_to_dict, save_model
from .oracle import (
    exact_conditional_moments,
    exact_estimator_targets,
    path_raw_moments,
    verify_measure_change,
)
from .simulation import (
    CoverageResult,
    ExperimentConfig,
    NormalityDiagnostics,
    anscombe_study,
    coverage_study,
    load_config,
    rng_for,
    sample_dataset,
)
from .tabular import (
    DiscretizationRule,
    TabularDataset,
    apply_rules,
    load_table,
    markov_discrepancy,
    quantile_discretize,
    sort_labels,
    write_dataset_csv,
)

__version__ = "0.1.0"


def data_path(name: str):
    """Path to a bundled dataset or model file under daglm/data."""
    return _resources.files("daglm").joinpath("data", name)


__all__ = [
    "AsymptoticVariance",
    "CellEstimate",
    "ConfidenceInterval",
    "CoverageResult",
    "DaglmError",
    "DagSpec",
    "DataError",
    "DiscretizationRule",
    "ExperimentConfig",
    "ModelError",
    "ModelFile",
    "NoDataError",
    "NodeQuality",
    "NormalityDiagnostics",
    "PathDataset",
    "QualityModel",
    "REGIME_KNOWN",
    "REGIME_UNKNOWN",
    "StatisticalError",
    "TabularDataset",
    "TransitionKernel",
    "anscombe_study",
    "apply_rules",
    "asym_var_mean_known",
    "asym_var_mean_unknown",
    "asym_var_variance_known",
    "asym_var_variance_unknown",
    "cell_estimate",
    "conditional_path_probability",
    "confidence_interval",
    "coverage_study",
    "data_path",
    "enumerate_support_paths",
    "estimate_kernel",
    "exact_conditional_moments",
    "exact_estimator_targets",
    "kernels_equivalent",
    "load_config",
    "load_model",
    "load_table",
    "markov_discrepancy",
    "model_from_dict",
    "model_to_dict",
    "node_marginal",
    "normal_quantile",
    "path_raw_moments",
    "plugin_asym_var",
    "quantile_discretize",
    "rng_for",
    "sample_dataset",
    "save_model",
    "sort_labels",
    "uniform_kernel",
    "validate_dag",
    "validate_path",
    "verify_measure_change",
    "write_dataset_csv",
]
