"""Sampling engine and Monte-Carlo studies.

Reproducibility contract: all randomness comes from numpy's Philox
counter-based generator keyed by ``(master_seed, replicate_index)``. Each
replicate owns an independent stream, so results are byte-identical for a
given (seed, config) no matter how replicates are scheduled across workers;
any parallel driver only needs to merge results by replicate index.

A study draws its replicates in blocks of consecutive replicates, about
``_BLOCK_RECORDS`` records each, and groups each block by (replicate, path)
as it is drawn, keeping only the counts and sums of the pairs that hold
records; the blocks make one table of replicates that lists each path once.
Within a block every replicate still draws from its own stream exactly what
:func:`sample_dataset`, the block of one replicate, draws. Estimates,
asymptotic variances and intervals are then reduced for all replicates
together, one column at a time with all of its levels at once. A
replicate's cells depend only on its own stream: they are the same bits as
the single-dataset estimate, asymptotic variance and interval of that
replicate, whichever other replicates the study holds. Each check masks
the cells it refuses, and a study raises the refusal that a loop over
replicates, then nodes, then checks meets first. A config resolves its
target kernel when it is built, so all of its studies share one exact pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ModelError, StatisticalError
from .estimators import _canonical_kind, _column, _raise_first
from .asymptotics import (
    _avs,
    _check_which,
    _closed_form,
    _kind_regime,
    _limits,
    _quantile,
)
from .model import (
    DagSpec,
    PathDataset,
    PathGroups,
    QualityModel,
    TransitionKernel,
    _frozen,
    _group_records,
    _path_cells,
    _reachable_nodes,
    uniform_kernel,
)
from .modelfile import load_model
from .oracle import exact_estimator_targets

_ESTIMATOR_NAMES = ("naive", "weighted", "plugin")

#: the generator's key takes 64-bit words: seeds and replicate indices lie
#: in [0, _KEY_LIMIT)
_KEY_LIMIT = 2**64

_CONFIG_FIELDS = {
    "model-ref", "n", "seed", "replicates", "target-kernel", "estimators", "level",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a simulation study needs, in one immutable record. The
    ``target`` is resolved when it is built ("uniform" to the uniform kernel
    of ``spec``), so an unknown target string is refused here."""

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
        if not 0 <= int(self.seed) < _KEY_LIMIT:
            raise ModelError("seed must fit in 64 bits")
        if not 0.0 < self.level < 1.0:
            raise ModelError(f"level {self.level} outside (0, 1)")
        if not self.estimators:
            raise ModelError("estimators must name at least one estimator, got []")
        for name in self.estimators:
            if name not in _ESTIMATOR_NAMES:
                raise ModelError(f"unknown estimator {name!r}")
        object.__setattr__(self, "target", _target_kernel(self.target, self.spec))
        for role, kernel in (("kernel", self.kernel), ("target kernel", self.target)):
            if kernel.levels != self.spec.levels:
                raise ModelError(
                    f"{role} levels {kernel.levels} do not match the spec's "
                    f"levels {self.spec.levels}"
                )
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.nodes is not None:
            nodes = tuple((int(i), int(j)) for i, j in self.nodes)
            for i, j in nodes:
                self.spec._check_node(j, i)
            object.__setattr__(self, "nodes", nodes)


def _target_kernel(target: str | TransitionKernel, spec: DagSpec) -> TransitionKernel:
    """The kernel a target names: itself, or for "uniform" the uniform
    kernel of ``spec``."""
    if isinstance(target, TransitionKernel):
        return target
    if target == "uniform":
        return uniform_kernel(spec)
    raise ModelError(f"unknown target kernel {target!r}")


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
    for name in ("n", "seed", "replicates"):
        value = obj.get(name, 1)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ModelError(f"{path}: config field {name!r} must be an integer, got {value!r}")
    level = obj.get("level", 0.95)
    if isinstance(level, bool) or not isinstance(level, (int, float)):
        raise ModelError(f"{path}: config field 'level' must be a number, got {level!r}")
    estimators = obj.get("estimators", ["plugin"])
    if not isinstance(estimators, list) or not all(isinstance(e, str) for e in estimators):
        raise ModelError(
            f"{path}: config field 'estimators' must be a list of strings, got {estimators!r}"
        )

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
            n=obj["n"],
            seed=obj["seed"],
            replicates=obj.get("replicates", 1),
            target=target,
            estimators=tuple(estimators),
            level=float(level),
        )
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{path}: bad config value ({exc})") from None


# ---------------------------------------------------------------------------
# sampling

def rng_for(seed: int, replicate: int = 0) -> np.random.Generator:
    """Philox generator for one replicate stream."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(replicate)]))


#: a study draws and groups consecutive replicates together, about this
#: many records at a time; a replicate is never split across blocks
_BLOCK_RECORDS = 2**14


def _inverse_cdf(kernel: TransitionKernel, u: np.ndarray) -> np.ndarray:
    """The paths of the records whose column-k variates are ``u[k - 1]``:
    inverse-CDF sampling column by column, each level the count of
    cumulative probabilities at or below its variate. ``u`` is (c, ...)
    and the paths (m, c), m records in the order of ``u[0]``."""
    levels = kernel.levels
    out = np.empty((u[0].size, len(levels)), dtype=np.int64)
    cdfs = [np.cumsum(kernel.initial)[None]] + [np.cumsum(s, axis=1) for s in kernel.steps]
    rows = np.zeros(1, dtype=np.int64)  # column 1: one row of thresholds for all
    for k, (cdf, r) in enumerate(zip(cdfs, levels)):
        level = np.zeros(u.shape[1:], dtype=np.int64)
        for threshold in cdf.T:
            level += threshold[rows] <= u[k]
        rows = np.minimum(level, r - 1, out=level)
        out[:, k] = rows.ravel() + 1
    return out


def _sample_block(
    config: ExperimentConfig, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The records of replicates ``start`` to ``stop - 1`` in replicate
    order: each record's replicate, counted from ``start``, its path and
    its response.

    Each replicate draws from its own stream: one uniform variate per
    column per record, then the values of the nodes its records visit,
    grouped by node in column-major order, which is deterministic and
    record-independent. A node's quality spec is read only where it has
    records.
    """
    levels, n, count = config.spec.levels, config.n, stop - start
    rngs = [rng_for(config.seed, rep) for rep in range(start, stop)]
    u = np.empty((count, len(levels), n))
    for rng, variates in zip(rngs, u):
        rng.random(out=variates)
    paths = _inverse_cdf(config.kernel, u.transpose(1, 0, 2))
    replicate = np.repeat(np.arange(count), n)
    responses = np.zeros(count * n)
    values = np.empty(count * n)
    for j, r in enumerate(levels, start=1):
        col = paths[:, j - 1]
        visits = np.bincount(replicate * r + (col - 1), minlength=count * r).reshape(count, r)
        for i in range(1, r + 1):
            drawn = np.flatnonzero(visits[:, i - 1])
            if drawn.size:
                node = config.quality.node(i, j)
                try:
                    values[np.flatnonzero(col == i)] = np.concatenate(
                        [node.sample(rngs[k], visits[k, i - 1]) for k in drawn]
                    )
                except ModelError as err:
                    raise ModelError(f"node ({i}, {j}): {err}") from None
        responses += values  # each record visits one node of the column
    if not np.isfinite(responses).all():
        raise DataError("responses must be finite")
    return replicate, paths, responses


def sample_dataset(config: ExperimentConfig, replicate: int = 0) -> PathDataset:
    """Simulate one dataset: n paths from the kernel, each with a fresh
    response built from per-node draws at the visited nodes only (see
    :func:`_sample_block`)."""
    _, paths, responses = _sample_block(config, replicate, replicate + 1)
    return PathDataset(config.spec, _frozen(paths), _frozen(responses))


# ---------------------------------------------------------------------------
# replicate-level estimation helpers

def _study_nodes(config: ExperimentConfig) -> tuple[tuple[int, int], ...]:
    if config.nodes is not None:
        return config.nodes
    return tuple(_reachable_nodes(config.kernel))


def _effective_target(config: ExperimentConfig, kind: str) -> TransitionKernel:
    # the naive estimator is only consistent for the source kernel's own
    # conditional moments, so its study target is the source kernel
    return config.kernel if kind == "naive" else config.target


def _study_setup(config: ExperimentConfig, kind: str, which: str, minimum: int,
                 study: str) -> tuple[TransitionKernel, tuple, np.ndarray]:
    """A study's target, its nodes and the (r_max, c) grid of exact ``which``
    targets. Refuses fewer than ``minimum`` replicates, naming the ``study``,
    then an unknown kind or statistic, then as :func:`exact_estimator_targets`."""
    if config.replicates < minimum:
        raise StatisticalError(f"{study} studies need >= {minimum} replicates, "
                               f"got {config.replicates}")
    _canonical_kind(kind)
    _check_which(which)
    target = _effective_target(config, kind)
    means, variances = exact_estimator_targets(config.kernel, target, config.quality)
    return target, _study_nodes(config), means if which == "mean" else variances


def _replicate_table(config: ExperimentConfig) -> PathGroups:
    """Every replicate of a study in one table, drawn and grouped block by
    block (the records of a block are then dropped); the blocks' entries
    follow one another in replicate order, their paths numbered once more."""
    per_block = max(1, _BLOCK_RECORDS // config.n)
    blocks, offset = [], 0
    for start in range(0, config.replicates, per_block):
        stop = min(start + per_block, config.replicates)
        replicate, paths, responses = _sample_block(config, start, stop)
        block = _group_records(paths, responses, config.spec.levels, replicate, stop - start)
        blocks.append((block.paths, offset + block.path, block.counts, block.sums,
                       start + block.replicate))
        offset += len(block.paths)
    fields = list(zip(*blocks))  # each field's blocks are dropped once it is joined
    blocks.clear()
    paths, path, counts, sums, replicate = (np.concatenate(fields.pop(0)) for _ in range(5))
    distinct, index = _path_cells(paths, config.spec.levels)
    return PathGroups(distinct, index[path], counts, sums, replicate, config.replicates)


def _per_node(config: ExperimentConfig, kind: str, target: TransitionKernel, nodes,
              reduce) -> dict:
    """Each study node's slices of the (R, r) arrays that ``reduce`` returns
    after a column's checks; raises the refusal that the study's loop meets first."""
    table = _replicate_table(config)
    columns = {j: reduce(_column(table, config.spec.levels[j - 1], j, kind, config.kernel, target))
               for j in dict.fromkeys(j for _, j in nodes)}
    _raise_first([(columns[j][0], i - 1) for i, j in nodes])
    return {(i, j): [a[:, i - 1] for a in columns[j][1:]] for i, j in nodes}


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
    """Simulate, estimate and cover: the fraction of replicates whose CI
    contains the exact estimator target."""
    target, nodes, grid = _study_setup(config, kind, which, 100, "coverage")
    if level is None:
        level = config.level
    targets = {(i, j): float(grid[i - 1, j - 1]) for i, j in nodes}

    z = _quantile(level)

    def reduce(column):
        mean, variance, _, checks = column.estimates
        av = _avs(column, which)
        point = mean if which == "mean" else variance
        return (column.checks + av.checks + checks + (av.finite,), point,
                *_limits(point, av.value, column.size, z))

    cells = _per_node(config, kind, target, nodes, reduce)
    est, low, up = ({node: cells[node][k] for node in nodes} for k in range(3))
    cov = {node: (low[node] <= targets[node]) & (targets[node] <= up[node])
           for node in nodes}
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
    if kind is None:
        kind = config.estimators[0]
    target, nodes, grid = _study_setup(config, kind, which, 500, "normality")
    regime = _kind_regime(kind)
    avs = {
        (i, j): _closed_form(config.kernel, target, config.quality, i, j, which, regime).value
        for i, j in nodes
    }

    def reduce(column):
        mean, variance, _, checks = column.estimates
        value = mean if which == "mean" else variance
        return (column.checks + checks,
                np.sqrt(column.n) * (value - grid[: column.n.shape[1], column.j - 1]))

    cells = _per_node(config, kind, target, nodes, reduce)
    out = {}
    for node in nodes:
        av, (raw,) = avs[node], cells[node]
        degenerate = av <= 0.0
        statistics = raw if degenerate else raw / math.sqrt(av)
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
            raw=raw,
            statistics=statistics,
            mean=float(np.mean(statistics)),
            variance=float(np.var(statistics)),
            skewness=skew,
            ks_distance=ks,
            degenerate=degenerate,
        )
    return out
