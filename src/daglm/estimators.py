"""Point estimators of per-node response means and variances.

Three families, all averaging over the records whose path passes through a
fixed node (i, j):

* naive: plain cell mean / population variance of the responses;
* weighted: responses reweighted by the exact measure-change ratio between
  a known source kernel and a target kernel;
* plugin: responses reweighted by the empirical ratio built from observed
  path frequencies (source kernel unknown).

All three reduce over the cell's distinct observed paths (record counts,
response sums and centred sums, grouped once per dataset by
:attr:`PathDataset.groups`). Each path carries one per-record weight, 1 for
the naive kind; every kind sums weight times path sum with the same
floating-point sequence, so a ratio that is identically 1 reproduces the
naive value bit for bit.

The reductions run over a table of replicates (a study's, built by
:func:`simulation._replicate_table`), one row per replicate, and one
dataset is the table of one replicate. Sums over paths add one path after
another in path order, so a path that a replicate never saw adds an exact
0.0 and each row is the same bits as the reduction of that replicate
alone.

All functions are pure; datasets are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, NoDataError, StatisticalError
from .model import (
    PathDataset,
    PathGroups,
    TransitionKernel,
    conditional_path_probabilities,
    kernels_equivalent,
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


def _refuse(bad, error: type[Exception], message) -> None:
    """Raise ``error(message(r))`` for the first replicate row r that the
    mask ``bad`` flags (a 0-d mask is row 0)."""
    if np.count_nonzero(bad):
        raise error(message(int(np.argmax(bad))))


def _path_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last (path) axis, adding one path after another in path
    order: a path that a replicate never saw adds an exact 0.0, so a row's
    sum is the same bits whichever other paths the table holds."""
    return x.cumsum(axis=-1)[..., -1]


def _records(cell: PathGroups, i: int, j: int) -> np.ndarray:
    """The record count of the cell at (i, j) in each replicate; a replicate
    with none is refused."""
    n = cell.counts.sum(axis=-1)
    _refuse(n == 0, NoDataError, lambda r: f"no data at node ({i}, {j})")
    return n


def _clip_variance(variance: np.ndarray, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Clip negative variance estimates to 0, flagging each clip.

    Unweighted cell variances are nonnegative by construction, so a strict
    floor of VARIANCE_CLIP guards against real bugs there. Reweighted
    variances can come out genuinely negative in small samples (the weights
    need not average to exactly 1 over the cell), so any negative value is
    clipped and flagged.
    """
    clipped = ~(variance >= 0.0)
    if strict:
        _refuse(clipped & ~(variance >= VARIANCE_CLIP), StatisticalError,
                lambda r: f"variance {float(variance[r])} below the rounding-noise floor")
    return np.where(clipped, 0.0, variance), clipped


def _first_path(cell: PathGroups, mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(x) for x in cell.paths[np.argmax(mask)])


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


@dataclass(frozen=True)
class _CellWeights:
    """A cell's distinct observed paths and each path's per-record weight
    under one estimator kind, for every replicate of a table (one replicate
    for one dataset); every estimate and plug-in asymptotic variance of the
    cell reduces over this. ``ratio`` is (m,) where it does not depend on
    the replicate (naive, weighted) and (R, m) where it does (plugin; 0 on a
    path that a replicate never saw). ``target`` holds the observed paths'
    target conditional probabilities (R, m) where the estimator uses them
    (plugin)."""

    node: tuple[int, int]  # (level i, column j)
    kind: str
    cell: PathGroups  # a table of replicates, one row each
    n: np.ndarray  # the cell's record count in each replicate
    ratio: np.ndarray
    target: np.ndarray | None = None

    def check_support(self) -> None:
        """Refuse a plugin cell whose observed paths do not carry all of the
        target conditional mass: the estimator's normalization is then
        undefined, and it is refused rather than silently renormalized."""
        if self.target is None:
            return
        total = _path_sum(self.target)
        _refuse(
            np.abs(total - 1.0) > 1e-9, StatisticalError,
            lambda r: f"observed paths through node {self.node} carry target conditional "
            f"mass {total[r]:.6g}, not 1; support paths are missing from the data",
        )

    @cached_property
    def moments(self) -> tuple[np.ndarray, ...]:
        """Each replicate's cell mean and weight total sum(count * w) / n, and
        for each path its offset delta from the exact weighted mean and its
        central moments c_2, c_3, c_4 (0 on a path with no records). Column 1
        of the grouped sums corrects both for the rounding of the path means;
        every difference is taken before a power, so a shift of the response
        moves none of them. The known-source mean is not self-normalised: it
        divides by n, not by n times the weight total."""
        cell, w, n = self.cell, self.ratio, self.n
        seen = cell.counts > 0
        count = np.where(seen, cell.counts, 1)
        a1, a2, a3, a4 = np.moveaxis(cell.sums[..., 1:], -1, 0) / count
        mean = _path_sum(w * cell.sums[..., 0]) / n
        total = _path_sum(w * cell.counts) / n
        offset = np.where(seen, cell.sums[..., 0] / count - mean[:, None], 0.0) + a1
        shift = _path_sum(cell.counts * w * offset) / n
        if self.kind == KIND_WEIGHTED:
            shift = shift + mean * (total - 1.0)
        c2 = a2 - a1 * a1
        c3 = a3 - a1 * (3.0 * a2 - 2.0 * a1 * a1)
        c4 = a4 - a1 * (4.0 * a3 - a1 * (6.0 * a2 - 3.0 * a1 * a1))
        return mean, total, offset - shift[:, None], c2, c3, c4


def _table_weights(
    cell: PathGroups,
    i: int,
    j: int,
    kind: str,
    kernel: TransitionKernel | None = None,
    target: TransitionKernel | None = None,
) -> _CellWeights:
    """The one dispatch on the estimator kind, over a table of replicates of
    the cell at (i, j): unit weights (naive), exact target-over-source
    ratios (weighted), or target conditional probabilities over each
    replicate's observed path shares (plugin)."""
    kind = _canonical_kind(kind)
    if kind == KIND_WEIGHTED:
        if kernel is None or target is None:
            raise ModelError("weighted estimator needs both source and target kernels")
        if not kernels_equivalent(kernel, target):
            raise ModelError("measures not equivalent")
    elif kind == KIND_PLUGIN and target is None:
        raise ModelError("plugin estimator needs a target kernel")
    n = _records(cell, i, j)
    observed = cell.counts > 0
    if kind == KIND_NAIVE:
        return _CellWeights((i, j), kind, cell, n, np.ones(len(cell.paths)))
    if kind == KIND_WEIGHTED:
        cond_q, in_support = conditional_path_probabilities(kernel, cell.paths, j, i)
        outside = observed & ~in_support
        _refuse(outside.any(axis=-1), StatisticalError,
                lambda r: f"path {_first_path(cell, outside[r])} outside the source "
                "kernel's support")
        cond_t, _ = conditional_path_probabilities(target, cell.paths, j, i)
        return _CellWeights((i, j), kind, cell, n, cond_t / cond_q)
    cond, in_support = conditional_path_probabilities(target, cell.paths, j, i)
    outside = observed & ~in_support
    _refuse(outside.any(axis=-1), StatisticalError,
            lambda r: f"target measure excludes observed path {_first_path(cell, outside[r])}")
    ratio = np.divide(cond * n[:, None], cell.counts,
                      out=np.zeros(cell.counts.shape), where=observed)
    return _CellWeights((i, j), kind, cell, n, ratio, np.where(observed, cond, 0.0))


def _cell_weights(
    data: PathDataset,
    i: int,
    j: int,
    kind: str,
    kernel: TransitionKernel | None = None,
    target: TransitionKernel | None = None,
) -> _CellWeights:
    """The cell at (i, j) of one dataset, weighted as :func:`_table_weights`
    weighs a table of one replicate."""
    cell = data.node_groups(j, i)
    one = PathGroups(cell.paths, cell.counts[None], cell.sums[None])
    return _table_weights(one, i, j, kind, kernel, target)


def _estimates(weights: _CellWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each replicate's cell mean, variance and clip flag: the shared
    reduction for all estimator families, with the same floating-point
    sequence for every kind; unit weights clip strictly (see
    :func:`_clip_variance`). The variance is sum(w * count * (c_2 +
    delta^2)) / n (:attr:`_CellWeights.moments`); the known-source estimator's
    adds mean^2 (1 - weight total)."""
    weights.check_support()
    mean, total, delta, c2, _, _ = weights.moments
    variance = _path_sum(weights.ratio * weights.cell.counts * (c2 + delta * delta)) / weights.n
    if weights.kind == KIND_WEIGHTED:
        variance = variance + mean * mean * (1.0 - total)
    variance, clipped = _clip_variance(variance, weights.kind == KIND_NAIVE)
    return mean, variance, clipped


def _estimate(weights: _CellWeights, target_id: str = "") -> CellEstimate:
    """The estimate of a one-replicate cell (see :func:`_estimates`)."""
    (mean,), (variance,), (clipped,) = _estimates(weights)
    return CellEstimate(
        weights.node, int(weights.n[0]), float(mean), float(variance), weights.kind,
        target_id, bool(clipped),
    )


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
    return _estimate(_cell_weights(data, i, j, kind, kernel, target), target_id)
