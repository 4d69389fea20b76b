"""Sampling engine and Monte-Carlo studies.

Reproducibility contract: all randomness comes from numpy's Philox
counter-based generator keyed by ``(master_seed, replicate_index)``. Each
replicate owns an independent stream, so results are byte-identical for a
given (seed, config) no matter how replicates are scheduled across workers;
any parallel driver only needs to merge results by replicate index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ModelError, StatisticalError
from .estimators import _cell_weights, _estimate, cell_estimate
from .asymptotics import (
    REGIME_KNOWN,
    _kind_regime,
    _weights_av,
    asym_var_mean_known,
    asym_var_mean_unknown,
    asym_var_variance_known,
    asym_var_variance_unknown,
    confidence_interval,
)
from .model import (
    SUPPORT_ZERO,
    DagSpec,
    PathDataset,
    QualityModel,
    TransitionKernel,
    _refuse_unobserved,
    node_marginal,
    uniform_kernel,
)
from .modelfile import load_model
from .oracle import exact_estimator_targets

_ESTIMATOR_NAMES = ("naive", "weighted", "plugin")

_CONFIG_FIELDS = {
    "model-ref", "n", "seed", "replicates", "target-kernel", "estimators", "level",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a simulation study needs, in one immutable record."""

    spec: DagSpec
    kernel: TransitionKernel
    quality: QualityModel
    n: int
    seed: int
    replicates: int = 1
    target: str | TransitionKernel = "uniform"
    estimators: tuple[str, ...] = ("plugin",)
    level: float = 0.95
    nodes: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ModelError(f"sample size must be >= 1, got {self.n}")
        if self.replicates < 1:
            raise ModelError(f"replicates must be >= 1, got {self.replicates}")
        if not 0 <= int(self.seed) < 2**64:
            raise ModelError("seed must fit in 64 bits")
        if not 0.0 < self.level < 1.0:
            raise ModelError(f"level {self.level} outside (0, 1)")
        for name in self.estimators:
            if name not in _ESTIMATOR_NAMES:
                raise ModelError(f"unknown estimator {name!r}")
        for role, kernel in (("kernel", self.kernel), ("target kernel", self.target)):
            if isinstance(kernel, TransitionKernel) and kernel.levels != self.spec.levels:
                raise ModelError(
                    f"{role} levels {kernel.levels} do not match the spec's "
                    f"levels {self.spec.levels}"
                )
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.nodes is not None:
            object.__setattr__(
                self, "nodes", tuple((int(i), int(j)) for i, j in self.nodes)
            )


def resolve_target(config: ExperimentConfig) -> TransitionKernel:
    if isinstance(config.target, TransitionKernel):
        return config.target
    if config.target == "uniform":
        return uniform_kernel(config.spec)
    raise ModelError(f"unknown target kernel {config.target!r}")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an experiment config file (JSON; fields "model-ref", "n",
    "seed", and optional "replicates", "target-kernel", "estimators",
    "level"). Paths are resolved relative to the config file."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ModelError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ModelError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ModelError(f"config file {path} must hold a JSON object")
    unknown = set(obj) - _CONFIG_FIELDS
    if unknown:
        raise ModelError(f"{path}: unknown config fields: {', '.join(sorted(unknown))}")
    for required in ("model-ref", "n", "seed"):
        if required not in obj:
            raise ModelError(f"{path}: missing config field {required!r}")

    model = load_model((path.parent / str(obj["model-ref"])).resolve())
    if model.quality is None:
        raise ModelError(f"{path}: referenced model has no quality section")

    target: str | TransitionKernel = obj.get("target-kernel", "uniform")
    if target != "uniform":
        target = load_model((path.parent / str(target)).resolve()).kernel

    try:
        return ExperimentConfig(
            spec=model.spec,
            kernel=model.kernel,
            quality=model.quality,
            n=int(obj["n"]),
            seed=int(obj["seed"]),
            replicates=int(obj.get("replicates", 1)),
            target=target,
            estimators=tuple(obj.get("estimators", ("plugin",))),
            level=float(obj.get("level", 0.95)),
        )
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{path}: bad config value ({exc})") from None


# ---------------------------------------------------------------------------
# sampling

def rng_for(seed: int, replicate: int = 0) -> np.random.Generator:
    """Philox generator for one replicate stream."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(replicate)]))


def sample_paths(
    kernel: TransitionKernel, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` independent paths, one uniform variate per column per
    record, consumed column by column (inverse-CDF within each row)."""
    _refuse_unobserved(kernel, "cannot sample")
    levels = kernel.levels
    out = np.empty((size, len(levels)), dtype=np.int64)
    cdf = np.cumsum(kernel.initial)
    u = rng.random(size)
    out[:, 0] = np.minimum((cdf <= u[:, None]).sum(axis=1), levels[0] - 1) + 1
    for k, step in enumerate(kernel.steps):
        cdfs = np.cumsum(step, axis=1)
        u = rng.random(size)
        thresh = cdfs[out[:, k] - 1]
        out[:, k + 1] = (
            np.minimum((thresh <= u[:, None]).sum(axis=1), levels[k + 1] - 1) + 1
        )
    return out


def sample_dataset(config: ExperimentConfig, replicate: int = 0) -> PathDataset:
    """Simulate one dataset: n paths from the kernel, each with a fresh
    response built from per-node draws at the visited nodes only.

    Node values are drawn grouped by node in column-major order, which is
    deterministic and record-independent.
    """
    rng = rng_for(config.seed, replicate)
    paths = sample_paths(config.kernel, rng, config.n)
    responses = np.zeros(config.n)
    for j, r in enumerate(config.spec.levels, start=1):
        col = paths[:, j - 1]
        for i in range(1, r + 1):
            mask = col == i
            hits = int(mask.sum())
            if hits:
                responses[mask] += config.quality.node(i, j).sample(rng, hits)
    return PathDataset(config.spec, paths, responses)


# ---------------------------------------------------------------------------
# replicate-level estimation helpers

def _study_nodes(config: ExperimentConfig) -> tuple[tuple[int, int], ...]:
    if config.nodes is not None:
        return config.nodes
    nodes = []
    for j, r in enumerate(config.spec.levels, start=1):
        for i in range(1, r + 1):
            if node_marginal(config.kernel, j, i) > SUPPORT_ZERO:
                nodes.append((i, j))
    return tuple(nodes)


def _effective_target(config: ExperimentConfig, kind: str) -> TransitionKernel:
    # the naive estimator is only consistent for the source kernel's own
    # conditional moments, so its study target is the source kernel
    return config.kernel if kind == "naive" else resolve_target(config)


def _exact_av(config: ExperimentConfig, kind: str, target, i: int, j: int, which: str):
    if _kind_regime(kind) == REGIME_KNOWN:
        fn = asym_var_mean_known if which == "mean" else asym_var_variance_known
    else:
        fn = asym_var_mean_unknown if which == "mean" else asym_var_variance_unknown
    return fn(config.kernel, target, config.quality, i, j)


# ---------------------------------------------------------------------------
# studies

@dataclass(frozen=True)
class CoverageResult:
    """Per-node empirical CI coverage with full replicate summaries."""

    kind: str
    which: str
    level: float
    nodes: tuple[tuple[int, int], ...]
    targets: dict = field(repr=False)
    estimates: dict = field(repr=False)
    lowers: dict = field(repr=False)
    uppers: dict = field(repr=False)
    covered: dict = field(repr=False)

    @property
    def coverage(self) -> dict:
        return {node: float(np.mean(self.covered[node])) for node in self.nodes}


#: a node's coverage is refused when the binomial tail of its count of
#: covering replicates at the nominal level is below this. At R = 100 and
#: level 0.95 that is 81 or fewer covering replicates: a node whose true
#: coverage is 0.94 is refused about 7 times in a million, one at 0.70 in
#: over 99 runs in 100
COVERAGE_ALPHA = 1e-6


def binomial_tail(covered: int, replicates: int, level: float) -> float:
    """The smaller tail probability of a Binomial(replicates, level) count
    at ``covered``: min(P(X <= covered), P(X >= covered))."""
    def pmf(k: int) -> float:
        return math.exp(math.lgamma(replicates + 1) - math.lgamma(k + 1)
                        - math.lgamma(replicates - k + 1)
                        + k * math.log(level) + (replicates - k) * math.log1p(-level))

    lower = sum(pmf(k) for k in range(covered + 1))
    upper = sum(pmf(k) for k in range(covered, replicates + 1))
    return min(lower, upper)


def coverage_study(
    config: ExperimentConfig,
    kind: str = "plugin",
    level: float | None = None,
    which: str = "mean",
) -> CoverageResult:
    """Simulate-estimate-cover loop: fraction of replicates whose CI
    contains the exact estimator target."""
    if config.replicates < 100:
        raise StatisticalError(
            f"coverage studies need >= 100 replicates, got {config.replicates}"
        )
    if level is None:
        level = config.level
    target = _effective_target(config, kind)
    nodes = _study_nodes(config)
    mean_targets, var_targets = exact_estimator_targets(
        config.kernel, target, config.quality
    )
    grid = mean_targets if which == "mean" else var_targets
    targets = {(i, j): float(grid[i - 1, j - 1]) for i, j in nodes}

    est = {node: np.empty(config.replicates) for node in nodes}
    low = {node: np.empty(config.replicates) for node in nodes}
    up = {node: np.empty(config.replicates) for node in nodes}
    cov = {node: np.empty(config.replicates, dtype=bool) for node in nodes}
    for rep in range(config.replicates):
        data = sample_dataset(config, rep)
        for i, j in nodes:
            weights = _cell_weights(data, i, j, kind, config.kernel, target)
            av = _weights_av(weights, which)
            ci = confidence_interval(_estimate(weights), av, level)
            est[(i, j)][rep] = ci.point
            low[(i, j)][rep] = ci.lower
            up[(i, j)][rep] = ci.upper
            cov[(i, j)][rep] = ci.lower <= targets[(i, j)] <= ci.upper
    return CoverageResult(
        kind=kind, which=which, level=level, nodes=nodes, targets=targets,
        estimates=est, lowers=low, uppers=up, covered=cov,
    )


@dataclass(frozen=True)
class NormalityDiagnostics:
    """Distributional diagnostics of the standardized estimator error."""

    node: tuple[int, int]
    kind: str
    which: str
    target_value: float
    av_value: float
    raw: np.ndarray  # sqrt(count) * (estimate - target), per replicate
    statistics: np.ndarray  # raw / sqrt(av_value)
    mean: float
    variance: float
    skewness: float
    ks_distance: float
    degenerate: bool


def _skewness_and_ks(x: np.ndarray) -> tuple[float, float]:
    """Sample skewness m3 / m2**1.5 (biased moments; NaN for zero spread)
    and the Kolmogorov-Smirnov distance max(D+, D-) of ``x`` to N(0, 1)."""
    d = x - x.mean()
    m2 = float(np.mean(d * d))
    skew = float(np.mean(d * d * d)) / m2**1.5 if m2 > 0.0 else math.nan
    z = np.sort(x)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
    n = z.size
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(n) / n)
    return skew, float(max(d_plus, d_minus))


def anscombe_study(
    config: ExperimentConfig,
    kind: str | None = None,
    which: str = "mean",
) -> dict[tuple[int, int], NormalityDiagnostics]:
    """Standardize the estimator error by the closed-form asymptotic
    variance and report how close to standard normal it looks."""
    if config.replicates < 500:
        raise StatisticalError(
            f"normality studies need >= 500 replicates, got {config.replicates}"
        )
    if kind is None:
        kind = config.estimators[0]
    target = _effective_target(config, kind)
    nodes = _study_nodes(config)
    mean_t, var_t = exact_estimator_targets(config.kernel, target, config.quality)
    grid = mean_t if which == "mean" else var_t

    avs = {
        (i, j): _exact_av(config, kind, target, i, j, which).value for i, j in nodes
    }
    raw = {node: np.empty(config.replicates) for node in nodes}
    for rep in range(config.replicates):
        data = sample_dataset(config, rep)
        for i, j in nodes:
            cell = cell_estimate(data, i, j, kind, config.kernel, target)
            value = cell.mean if which == "mean" else cell.variance
            raw[(i, j)][rep] = math.sqrt(cell.count) * (
                value - grid[i - 1, j - 1]
            )
    out = {}
    for node in nodes:
        av = avs[node]
        degenerate = av <= 0.0
        statistics = raw[node] if degenerate else raw[node] / math.sqrt(av)
        if degenerate:
            skew = float("nan")
            ks = float("nan")
        else:
            skew, ks = _skewness_and_ks(statistics)
        out[node] = NormalityDiagnostics(
            node=node,
            kind=kind,
            which=which,
            target_value=float(grid[node[0] - 1, node[1] - 1]),
            av_value=av,
            raw=raw[node],
            statistics=statistics,
            mean=float(np.mean(statistics)),
            variance=float(np.var(statistics)),
            skewness=skew,
            ks_distance=ks,
            degenerate=degenerate,
        )
    return out
