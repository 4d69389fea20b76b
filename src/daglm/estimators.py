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
:func:`simulation._replicate_table`), one row per replicate; one dataset
is the table of one replicate. A path lies in one node of each column, so
a table is reduced one column at a time, all of its levels at once
(:func:`_column`): each per-cell sum is one ``np.bincount`` over
(replicate, level), which adds a cell's paths one after another in path
order. A path that a replicate never saw adds an exact 0.0, so each cell
is the same bits as the reduction of that replicate's paths through that
node alone. Nothing is refused during a reduction: each check masks the
cells it refuses (:class:`_Check`), and each caller reads the masks in its
own order.

All functions are pure; datasets are immutable.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ModelError, NoDataError, StatisticalError
from .model import (
    SUPPORT_ZERO,
    PathDataset,
    PathGroups,
    TransitionKernel,
    _node_row,
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


@dataclass(frozen=True)
class _Check:
    """One refusal over the cells of a column: ``mask`` (R, r) flags the
    (replicate, level) cells it refuses, and ``message(r, l)`` says why.
    ``flag`` names the report flag of a refusal that the CLI reports in the
    cell's row instead of aborting."""

    mask: np.ndarray
    error: type[Exception]
    message: Callable[[int, int], str]
    flag: str | None = None

    def exception(self, r: int, l: int) -> Exception:
        return self.error(self.message(r, l))


def _first(checks: Sequence[_Check], r: int, l: int) -> _Check | None:
    """The first of ``checks`` that refuses cell (r, l), if any."""
    return next((check for check in checks if check.mask[r, l]), None)


def _flagged(paths: np.ndarray, level: np.ndarray, mask: np.ndarray, r: int, l: int) -> list:
    """The ``paths`` at level l of a column (each at ``level``) that
    ``mask`` (R, m) flags in replicate r."""
    return [tuple(p) for p in paths[mask[r] & (level == l)].tolist()]


def _raise_first(cells: Sequence[tuple[Sequence[_Check], int]]) -> None:
    """Raise the refusal that a loop over replicates, then over ``cells``
    (each the checks of a node's column and the node's level), then over
    each cell's checks in order, meets first."""
    refused = np.array([np.logical_or.reduce([c.mask[:, l] for c in checks])
                        for checks, l in cells])
    if not refused.any():
        return
    r = int(np.argmax(refused.any(axis=0)))
    checks, l = cells[int(np.argmax(refused[:, r]))]
    raise _first(checks, r, l).exception(r, l)


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
class _Column:
    """Column j of a table of replicates under one estimator kind, all of
    its levels at once: each path's level and per-record weight, each
    (replicate, level) cell's record count ``n`` (R, r), and the refusals
    of the weights. ``ratio`` is (m,) where it does not depend on the
    replicate (naive, weighted) and (R, m) where it does (plugin; 0 on a
    path that a replicate never saw)."""

    table: PathGroups
    j: int
    kind: str
    level: np.ndarray  # (m,) 0-based
    cells: np.ndarray  # (R * m,) replicate * r + level of each table entry
    n: np.ndarray
    size: np.ndarray  # n, with 1 for a cell without records (refused)
    ratio: np.ndarray
    checks: tuple[_Check, ...]

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Each cell's sum of ``x`` (R, m), adding its paths one after
        another in path order."""
        return np.bincount(self.cells, x.ravel(), self.n.size).reshape(self.n.shape)

    def at(self, x: np.ndarray) -> np.ndarray:
        """The per-cell ``x`` (R, r) at each path of each replicate."""
        return x[:, self.level]

    @cached_property
    def moments(self) -> tuple[np.ndarray, ...]:
        """Each cell's mean and weight total sum(count * w) / n, and for each
        path its offset delta from the exact weighted mean of its cell and
        its central moments c_2, c_3, c_4 (0 on a path with no records).
        Column 1 of the grouped sums corrects both for the rounding of the
        path means; every difference is taken before a power, so a shift of
        the response moves none of them. The known-source mean is not
        self-normalised: it divides by n, not by n times the weight total."""
        counts, sums, w = self.table.counts, self.table.sums[..., 0], self.ratio
        seen, path_mean, a1, c2, c3, c4 = self.table.moments
        mean = self.sum(w * sums) / self.size
        total = self.sum(w * counts) / self.size
        offset = np.where(seen, path_mean - self.at(mean), 0.0) + a1
        shift = self.sum(counts * w * offset) / self.size
        if self.kind == KIND_WEIGHTED:
            shift = shift + mean * (total - 1.0)
        return mean, total, offset - self.at(shift), c2, c3, c4

    @cached_property
    def estimates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[_Check, ...]]:
        """Each cell's mean, variance and clip flag, and the refusals of the
        estimate, with the same floating-point sequence for every kind. The
        variance is sum(w * count * (c_2 + delta^2)) / n; the known-source
        estimator's adds mean^2 (1 - weight total). A negative variance is
        clipped to 0 and flagged: reweighted variances can be genuinely
        negative in small samples, but unweighted ones are nonnegative by
        construction, so below VARIANCE_CLIP they are refused as bugs."""
        mean, total, delta, c2, _, _ = self.moments
        variance = self.sum(self.ratio * self.table.counts * (c2 + delta * delta)) / self.size
        if self.kind == KIND_WEIGHTED:
            variance = variance + mean * mean * (1.0 - total)
        clipped = ~(variance >= 0.0)
        checks = () if self.kind != KIND_NAIVE else (_Check(
            clipped & ~(variance >= VARIANCE_CLIP), StatisticalError,
            lambda r, l: f"variance {float(variance[r, l])} below the rounding-noise floor"),)
        return mean, np.where(clipped, 0.0, variance), clipped, checks


def _column(
    table: PathGroups,
    width: int,
    j: int,
    kind: str,
    kernel: TransitionKernel | None = None,
    target: TransitionKernel | None = None,
) -> _Column:
    """The one dispatch on the estimator kind, over column j (of ``width``
    levels) of a table of replicates: unit weights (naive), exact
    target-over-source ratios (weighted), or target conditional
    probabilities over each replicate's observed path shares (plugin).
    Kind and kernel errors are raised; the refusals of cells are masks."""
    kind = _canonical_kind(kind)
    if kind == KIND_WEIGHTED:
        if kernel is None or target is None:
            raise ModelError("weighted estimator needs both source and target kernels")
        if not kernels_equivalent(kernel, target):
            raise ModelError("measures not equivalent")
    elif kind == KIND_PLUGIN and target is None:
        raise ModelError("plugin estimator needs a target kernel")
    counts, paths, seen = table.counts, table.paths, table.moments[0]
    level = paths[:, j - 1] - 1
    cells = (np.arange(len(counts))[:, None] * width + level).ravel()
    n = np.bincount(cells, counts.ravel(), len(counts) * width).reshape(len(counts), width)
    column = _Column(table, j, kind, level, cells, n, np.maximum(n, 1.0), np.ones(len(paths)), ())
    checks = [_Check(n == 0, NoDataError, lambda r, l: f"no data at node ({l + 1}, {j})",
                     "no-data")]

    def null_event(k: TransitionKernel) -> _Check:
        start = _node_row(k.levels, j, 1)
        return _Check(np.broadcast_to(k._marginals[start: start + width] <= SUPPORT_ZERO, n.shape),
                      StatisticalError, lambda r, l: "conditioning on null event: "
                      f"node ({l + 1}, {j}) is unreachable")

    def outside(supported: np.ndarray, message: Callable[[tuple], str]) -> _Check:
        mask = seen & ~supported
        return _Check(column.sum(mask) > 0, StatisticalError,
                      lambda r, l: message(_flagged(paths, level, mask, r, l)[0]))

    ratio = column.ratio
    if kind == KIND_WEIGHTED:
        cond_q, supported = conditional_path_probabilities(kernel, paths, j)
        checks += [null_event(kernel),
                   outside(supported, lambda p: f"path {p} outside the source kernel's support")]
        cond_t, _ = conditional_path_probabilities(target, paths, j)
        checks.append(null_event(target))
        ratio = np.divide(cond_t, cond_q, out=np.zeros(len(paths)), where=cond_q > 0.0)
    elif kind == KIND_PLUGIN:
        cond, supported = conditional_path_probabilities(target, paths, j)
        checks += [null_event(target),
                   outside(supported, lambda p: f"target measure excludes observed path {p}")]
        ratio = np.divide(cond * column.at(n), counts, out=np.zeros(counts.shape), where=seen)
        # the normalization is undefined where the observed paths do not carry
        # all of the target conditional mass: refused, not renormalized
        mass = column.sum(np.where(seen, cond, 0.0))
        checks.append(_Check(
            np.abs(mass - 1.0) > 1e-9, StatisticalError,
            lambda r, l: f"observed paths through node {(l + 1, j)} carry target conditional "
            f"mass {mass[r, l]:.6g}, not 1; support paths are missing from the data",
            "support-incomplete",
        ))
    return replace(column, ratio=ratio, checks=tuple(checks))


def cell_estimate(
    data: PathDataset,
    i: int,
    j: int,
    kind: str,
    kernel: TransitionKernel | None = None,
    target: TransitionKernel | None = None,
    target_id: str = "",
) -> CellEstimate:
    """Full (mean, variance) estimate for one node under one estimator: its
    cell of the reduction of column j."""
    data._check_node(j, i)
    column = _column(data._table, data.spec.levels[j - 1], j, kind, kernel, target)
    mean, variance, clipped, checks = column.estimates
    l = i - 1
    _raise_first([(column.checks + checks, l)])
    return CellEstimate(
        (i, j), int(column.n[0, l]), float(mean[0, l]), float(variance[0, l]), column.kind,
        target_id, bool(clipped[0, l]),
    )
