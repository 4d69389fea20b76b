"""Point estimators of per-node response means and variances.

Three families, all averaging over the records whose path passes through a
fixed node (i, j):

* naive: plain cell mean / population variance of the responses;
* weighted: responses reweighted by the exact measure-change ratio between
  a known source kernel and a target kernel;
* plugin: responses reweighted by the empirical ratio built from observed
  path frequencies (source kernel unknown).

All three reduce over the cell's distinct observed paths (record counts
and response power sums, grouped once per dataset by
:attr:`PathDataset.groups`). Each path carries one per-record weight, 1 for
the naive kind; every kind sums weight times power sum with the same
floating-point sequence, so a ratio that is identically 1 reproduces the
naive value bit for bit.

All functions are pure; datasets are immutable. Cell aggregation may be
sharded by records and merged, with results equal up to floating-point
reassociation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NoDataError, StatisticalError
from .model import (
    SUPPORT_ZERO,
    PathDataset,
    PathGroups,
    PathLike,
    TransitionKernel,
    conditional_path_probabilities,
    conditional_path_probability,
    kernels_equivalent,
    validate_path,
)

#: variances this far below zero are attributed to rounding and clipped
VARIANCE_CLIP = -1e-9

#: canonical estimator-kind names used in reports
KIND_NAIVE = "naive"
KIND_WEIGHTED = "weighted-knownQ"
KIND_PLUGIN = "plugin-unknownQ"


@dataclass(frozen=True)
class CellEstimate:
    """Mean/variance estimate for one node, with its provenance."""

    node: tuple[int, int]  # (level i, column j)
    count: int
    mean: float
    variance: float
    kind: str
    target: str = ""
    clipped: bool = False


def accumulate_counts(data: PathDataset) -> tuple[np.ndarray, np.ndarray]:
    """One-pass response sums B and visit counts V, shape (r_max, c)."""
    spec = data.spec
    B = np.zeros((spec.r_max, spec.c))
    V = np.zeros((spec.r_max, spec.c))
    cols = np.broadcast_to(np.arange(spec.c), data.paths.shape)
    rows = data.paths - 1
    np.add.at(V, (rows, cols), 1.0)
    np.add.at(B, (rows, cols), data.responses[:, None])
    return B, V


def _cell(data: PathDataset, j: int, i: int) -> PathGroups:
    cell = data.node_groups(j, i)
    if cell.counts.size == 0:
        raise NoDataError(f"no data at node ({i}, {j})")
    return cell


def _clip_variance(value: float, strict: bool) -> tuple[float, bool]:
    """Clip a negative variance estimate to 0, flagging the clip.

    Unweighted cell variances are nonnegative by construction, so a strict
    floor of VARIANCE_CLIP guards against real bugs there. Reweighted
    variances can come out genuinely negative in small samples (the weights
    need not average to exactly 1 over the cell), so any negative value is
    clipped and flagged.
    """
    if value >= 0.0:
        return value, False
    if not strict or value >= VARIANCE_CLIP:
        return 0.0, True
    raise StatisticalError(f"variance {value} below the rounding-noise floor")


def _mean_and_variance(
    cell: PathGroups, w: np.ndarray, strict: bool
) -> tuple[float, float, bool]:
    """Shared reduction for all estimator families: ``w`` holds each
    distinct path's per-record weight; ``strict`` marks unit weights (see
    :func:`_clip_variance`)."""
    n = cell.n
    mean = float(np.sum(w * cell.sums[:, 1]) / n)
    second = float(np.sum(w * cell.sums[:, 2]) / n)
    variance, clipped = _clip_variance(second - mean * mean, strict)
    return mean, variance, clipped


def measure_change_ratio(
    kernel: TransitionKernel,
    target: TransitionKernel,
    path: PathLike,
    j: int,
    i: int,
) -> float:
    """Ratio of conditional path probabilities (target over source) given
    passage through node (i, j); the importance weight of the path."""
    if not kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    nodes = validate_path(path, kernel.spec())
    if nodes[j - 1] != i:
        raise ModelError(f"path does not pass through node ({i}, {j})")
    cond_q = conditional_path_probability(kernel, nodes, j, i)
    if cond_q <= SUPPORT_ZERO:
        raise StatisticalError(f"path {nodes} outside the source kernel's support")
    return conditional_path_probability(target, nodes, j, i) / cond_q


def _first_path(cell: PathGroups, mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(x) for x in cell.paths[np.argmax(mask)])


def _exact_weights(
    data: PathDataset,
    kernel: TransitionKernel,
    target: TransitionKernel,
    i: int,
    j: int,
) -> tuple[PathGroups, np.ndarray]:
    """The cell at (i, j) and the exact measure-change ratio of each of its
    distinct paths."""
    if not kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    cell = _cell(data, j, i)
    cond_q, in_support = conditional_path_probabilities(kernel, cell.paths, j, i)
    if not in_support.all():
        raise StatisticalError(
            f"path {_first_path(cell, ~in_support)} outside the source kernel's support"
        )
    cond_t, _ = conditional_path_probabilities(target, cell.paths, j, i)
    return cell, cond_t / cond_q


def empirical_ratio(
    data: PathDataset, target: TransitionKernel, path: PathLike, j: int, i: int
) -> float:
    """Plugin importance weight: target conditional path probability divided
    by the observed relative frequency of the path within the cell."""
    nodes = validate_path(path, data.spec)
    if nodes[j - 1] != i:
        raise ModelError(f"path does not pass through node ({i}, {j})")
    cell = _cell(data, j, i)
    n_path = int(cell.counts[(cell.paths == nodes).all(axis=1)].sum())
    if n_path == 0:
        raise StatisticalError(f"zero empirical frequency: path {nodes} never observed")
    return conditional_path_probability(target, nodes, j, i) * cell.n / n_path


def _plugin_weights(
    data: PathDataset, target: TransitionKernel, i: int, j: int
) -> tuple[PathGroups, np.ndarray, np.ndarray]:
    """The cell at (i, j), the empirical-ratio weight of each of its
    distinct paths, and their target conditional probabilities.

    Requires the observed paths to exhaust the target kernel's conditional
    support: every observed path must have positive target probability, and
    the target conditional probabilities of the observed paths must total 1.
    Anything else means the plugin estimator's normalization is undefined
    for this dataset, which is surfaced as an error rather than silently
    renormalized.
    """
    cell = _cell(data, j, i)
    cond, in_support = conditional_path_probabilities(target, cell.paths, j, i)
    if not in_support.all():
        raise StatisticalError(
            f"target measure excludes observed path {_first_path(cell, ~in_support)}"
        )
    total = float(cond.sum())
    if abs(total - 1.0) > 1e-9:
        raise StatisticalError(
            f"observed paths through node ({i}, {j}) carry target conditional "
            f"mass {total:.6g}, not 1; support paths are missing from the data"
        )
    return cell, cond * cell.n / cell.counts, cond


_KIND_ALIASES = {
    "naive": KIND_NAIVE,
    KIND_NAIVE: KIND_NAIVE,
    "weighted": KIND_WEIGHTED,
    KIND_WEIGHTED: KIND_WEIGHTED,
    "plugin": KIND_PLUGIN,
    KIND_PLUGIN: KIND_PLUGIN,
}


def _canonical_kind(kind: str) -> str:
    canonical = _KIND_ALIASES.get(kind)
    if canonical is None:
        raise ModelError(f"unknown estimator kind {kind!r}")
    return canonical


def cell_estimate(
    data: PathDataset,
    i: int,
    j: int,
    kind: str,
    kernel: TransitionKernel | None = None,
    target: TransitionKernel | None = None,
    target_id: str = "",
) -> CellEstimate:
    """Full (mean, variance) estimate for one node under one estimator."""
    kind = _canonical_kind(kind)
    if kind == KIND_NAIVE:
        cell = _cell(data, j, i)
        w = np.ones(cell.counts.size)
    elif kind == KIND_WEIGHTED:
        if kernel is None or target is None:
            raise ModelError("weighted estimator needs both source and target kernels")
        cell, w = _exact_weights(data, kernel, target, i, j)
    else:
        if target is None:
            raise ModelError("plugin estimator needs a target kernel")
        cell, w, _ = _plugin_weights(data, target, i, j)
    mean, variance, clipped = _mean_and_variance(cell, w, strict=kind == KIND_NAIVE)
    return CellEstimate(
        node=(i, j),
        count=cell.n,
        mean=mean,
        variance=variance,
        kind=kind,
        target=target_id,
        clipped=clipped,
    )
