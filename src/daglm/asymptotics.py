"""Closed-form asymptotic variances for the cell estimators, their plug-in
versions computed from data, and normal-approximation confidence intervals.

Every estimator error, scaled by the square root of the cell's visit count,
is asymptotically normal; the limiting variance depends on the estimator
family (regime "knownQ" for exact-ratio weighting, "unknownQ" for empirical
ratios) and on the statistic (cell mean or cell variance). It is the
variance of one scalar influence term per record, C phi, with phi = b for
the mean and, by the delta method, phi = b^2 - 2 mu b for the variance: by
the law of total variance over paths, the within-path variance
E[C^2 Var[phi | path]] plus the between-path variance Var[C E[phi | path]].
It is a sum over paths of a weight squared times a 1x1 block. In the
known-source regime the paths fold into one block of weight 1, both terms.
In the unknown-source regime, whose ratios are estimated, the term on a
path is C times phi less its path mean, so only the within-path term is
left: the block is p Var[phi | path] and the weight is C. Each block is
checked for sign on its own; no dense matrix is formed.

The plug-in forms reduce the observed paths through the cell (share of
records, ratio, central moments, offset from the mean) in a table with one
row per replicate: one dataset is a table of one row, a Monte-Carlo study
has a row for each of its replicates, and every check and value is computed
row by row. The naive estimators are the known-source regime with unit
ratios.

The closed forms (:func:`_closed_form`, behind the four ``asym_var_*``)
fold every regime into one block per node. Its entries are sums over the
support paths, which the forward-backward recursion of :mod:`daglm.oracle`
gives under the target kernel T and the tilted T^2/Q without listing the
paths: a path's weight C^2 p is its T^2/Q product times p_Q / p_T^2, the
node marginals. The node moments they read are realizable, as every
``NodeQuality`` checks when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ModelError, NoDataError, StatisticalError
from .estimators import (
    KIND_PLUGIN,
    KIND_WEIGHTED,
    CellEstimate,
    _canonical_kind,
    _Check,
    _Column,
    _column,
    _flagged,
    _raise_first,
)
from .model import (
    PSD_ATOL,
    PathDataset,
    QualityModel,
    TransitionKernel,
    _frozen,
)
from .oracle import _closed_form_sums

REGIME_KNOWN = "knownQ"
REGIME_UNKNOWN = "unknownQ"


@dataclass(frozen=True)
class AsymptoticVariance:
    """Limiting variance of sqrt(count) * (estimator - target) for one cell.

    ``blocks`` (m, 1) holds one 1x1 block per path: the path's share of the
    variance of the estimator's influence term. A closed form and a
    known-source plug-in form have one block, the paths folded into it; an
    unknown-source plug-in form has one per observed path. ``contraction``
    (m,) holds the weight of each block, and ``value`` is the sum over the
    blocks of the weight squared times the block.
    """

    node: tuple[int, int]
    target: str  # "mean" | "variance"
    regime: str  # "knownQ" | "unknownQ"
    value: float
    blocks: np.ndarray  # (m, 1)
    contraction: np.ndarray  # (m,)
    clipped: bool = False

    @property
    def matrix(self) -> np.ndarray:
        """The diagonal covariance matrix of the blocks, built on every read:
        ``value`` equals ``contraction @ matrix @ contraction``. No daglm
        code reads it; the benchmark's ``asymptotics.matrix_cells`` counter
        and the tests do."""
        matrix = np.diag(self.blocks[:, 0])
        matrix.setflags(write=False)
        return matrix


def _closed_form(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
    which: str,
    regime: str,
) -> AsymptoticVariance:
    """The closed-form asymptotic variance of the ``which`` statistic at
    node (i, j), folded into one 1x1 block of weight 1.

    With Y = b - mu and phi = Y^d (d = 1 for the mean, 2 for the
    variance) plus a constant k (mu, or -mu^2), both regimes read the
    node's row of :func:`_closed_form_sums`: mu, the T moments y of b - R
    and the sums x[a, b] = E[C^2 E[Y^a | path] E[Y^b | path]], which the
    all-node pass takes about R and the row shifts to mu. The within-path term
    E[C^2 Var[Y^d | path]] is x[2d, 0] - x[d, d], and it is the whole of
    the unknown-source variance. The known-source variance adds the
    between-path term Var[C E[phi | path]]: x[d, d] - m^2 + 2k (x[d, 0] - m)
    + k^2 (x[0, 0] - 1), with m = E_T[Y^d] and E[C] = 1. That last term rounds
    at k^2 E[C^2], which at a far mean swamps a small Var[C]. The block is
    checked and clipped as the plug-in blocks are (:func:`_avs`).
    """
    d = 1 if which == "mean" else 2
    mu, y, x = _closed_form_sums(kernel, target, quality, j, i, 2 * d)
    block = x[2 * d, 0] - x[d, d]
    if regime == REGIME_KNOWN:
        m, k = (0.0, mu) if d == 1 else (y[2] - y[1] * y[1], -mu * mu)
        block += x[d, d] - m * m + 2.0 * k * (x[d, 0] - m) + k * k * (x[0, 0] - 1.0)
    if block < -PSD_ATOL:
        raise StatisticalError(f"negative asymptotic variance block at node {(i, j)} "
                               f"(lowest {block:.3g})")
    return AsymptoticVariance((i, j), which, regime, max(float(block), 0.0),
                              _frozen(np.array([[block]])), _frozen(np.ones(1)),
                              clipped=bool(block < 0.0))


def asym_var_mean_known(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the exact-ratio weighted cell mean: the source
    kernel's conditional variance of the weighted response b*C."""
    return _closed_form(kernel, target, quality, i, j, "mean", REGIME_KNOWN)


def asym_var_variance_known(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the exact-ratio weighted cell variance: by the
    delta method, the source kernel's conditional variance of
    b^2*C - 2 mu b*C, one block of weight 1."""
    return _closed_form(kernel, target, quality, i, j, "variance", REGIME_KNOWN)


def asym_var_mean_unknown(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the plugin cell mean: the sum over the support
    paths of C^2 p Var[b | path], one block of weight 1."""
    return _closed_form(kernel, target, quality, i, j, "mean", REGIME_UNKNOWN)


def asym_var_variance_unknown(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the plugin cell variance: the sum over the
    support paths of C^2 p Var[(b - mu)^2 | path], one block of weight 1."""
    return _closed_form(kernel, target, quality, i, j, "variance", REGIME_UNKNOWN)


def _kind_regime(kind: str) -> str:
    """The regime of an estimator kind's asymptotics: only the plugin
    estimator's ratios are estimated from the data."""
    return REGIME_UNKNOWN if _canonical_kind(kind) == KIND_PLUGIN else REGIME_KNOWN


@dataclass(frozen=True)
class _ColumnAV:
    """The plug-in asymptotic variance of the ``which`` estimate at every
    cell of a column: the clipped values (R, r); the 1x1 blocks, one per
    cell (known source) or one per path (unknown source, (R, m), of weight
    the path's ratio); the refusals of the variance, and that of an
    interval from it (``finite``)."""

    column: _Column
    which: str
    regime: str
    value: np.ndarray
    blocks: np.ndarray
    clipped: np.ndarray
    checks: tuple[_Check, ...]
    finite: _Check

    def row(self, r: int, l: int) -> AsymptoticVariance:
        """The asymptotic variance of cell (r, l)."""
        if self.regime == REGIME_KNOWN:
            blocks, weights = np.array([[self.blocks[r, l]]]), np.ones(1)
        else:
            at = self.column.level == l
            blocks, weights = self.blocks[r, at][:, None], self.column.ratio[r, at]
        return AsymptoticVariance((l + 1, self.column.j), self.which, self.regime,
                                  float(self.value[r, l]), _frozen(blocks), _frozen(weights),
                                  bool(self.clipped[r, l]))


def _avs(column: _Column, which: str) -> _ColumnAV:
    """Plug-in asymptotic variance of the ``which`` estimate at every cell
    of a column, from each path's offset delta and central moments c_k
    (:attr:`_Column.moments`): V = Var[phi | path] is c_2 for the mean and
    c_4 + 4 delta c_3 + 4 delta^2 c_2 - c_2^2 for the variance, and
    E[phi | path] = e + k with e = delta or c_2 + delta^2 and k = mu or
    -mu^2. The unknown-source regime keeps one block p V per path, of
    weight C, and needs every distinct observed path at least twice. The
    known-source regime folds the paths into one block of weight 1,
    sum p C^2 V + sum p (a + k (C - Cbar))^2 with a = C e - sum p C e and
    Cbar the weight total, exactly 1 for the naive estimator. Blocks round
    at their own magnitude (at least 1): a block counts as negative below
    -PSD_ATOL, the value below -PSD_ATOL times the largest block magnitude
    of its cell."""
    if which not in ("mean", "variance"):
        raise ModelError(f"which must be 'mean' or 'variance', got {which!r}")
    ratio, counts, paths, level, j = (column.ratio, column.table.counts, column.table.paths,
                                      column.level, column.j)
    mu, total, delta, c2, c3, c4 = column.moments
    within = c2 if which == "mean" else c4 + 4.0 * delta * (c3 + delta * c2) - c2 * c2
    prob = counts / column.at(column.size)
    regime, checks = _kind_regime(column.kind), []
    if regime == REGIME_KNOWN:
        mu = column.at(mu)
        part, k = (delta, mu) if which == "mean" else (c2 + delta * delta, -mu * mu)
        between = (ratio * part - column.at(column.sum(prob * ratio * part))
                   + k * (ratio - column.at(total)))
        blocks = lowest = value = column.sum(prob * (ratio * ratio * within + between * between))
        scale = np.maximum(np.abs(blocks), 1.0)
    else:
        once = counts == 1
        checks.append(_Check(
            column.sum(once) > 0, StatisticalError,
            lambda r, l: "insufficient per-path replication for plug-in asymptotics; "
            f"paths seen once: {_flagged(paths, level, once, r, l)}",
        ))
        blocks = prob * within
        lowest, scale = np.full(column.n.shape, np.inf), np.ones(column.n.shape)
        np.minimum.at(lowest.ravel(), column.cells, blocks.ravel())
        np.maximum.at(scale.ravel(), column.cells, np.abs(blocks).ravel())
        value = column.sum(ratio * blocks * ratio)
    checks += [
        _Check(lowest < -PSD_ATOL, StatisticalError,
               lambda r, l: f"negative asymptotic variance block at node {(l + 1, j)} "
               f"(lowest {lowest[r, l]:.3g})"),
        _Check(value < -PSD_ATOL * scale, StatisticalError,
               lambda r, l: f"negative asymptotic variance {value[r, l]:.3g}"),
    ]
    clipped = value < 0.0
    reported = np.where(clipped, 0.0, value)
    finite = _Check(~np.isfinite(reported), StatisticalError,
                    lambda r, l: f"non-finite asymptotic variance at {(l + 1, j)}")
    return _ColumnAV(column, which, regime, reported, blocks, clipped, tuple(checks), finite)


def plugin_asym_var(
    data: PathDataset,
    target: TransitionKernel,
    i: int,
    j: int,
    which: str = "mean",
    regime: str = REGIME_UNKNOWN,
    kernel: TransitionKernel | None = None,
) -> AsymptoticVariance:
    """Asymptotic variance with all population quantities replaced by
    empirical counterparts from the dataset: the unknown-source regime with
    the plugin estimator's empirical ratios, or the known-source regime with
    the source ``kernel``'s exact ratios (see :func:`_avs`); its cell of the
    reduction of column j."""
    if regime == REGIME_KNOWN:
        if kernel is None:
            raise ModelError("knownQ regime needs the source kernel")
        kind = KIND_WEIGHTED
    elif regime == REGIME_UNKNOWN:
        kind = KIND_PLUGIN
    else:
        raise ModelError(f"unknown regime {regime!r}")
    data._check_node(j, i)
    column = _column(data._table, data.spec.levels[j - 1], j, kind, kernel, target)
    av = _avs(column, which)
    _raise_first([(column.checks + av.checks, i - 1)])
    return av.row(0, i - 1)


@dataclass(frozen=True)
class ConfidenceInterval:
    point: float
    lower: float
    upper: float
    level: float
    count: int


def normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF)."""
    if not 0.0 < p < 1.0:
        raise ModelError(f"quantile probability {p} outside (0, 1)")
    return NormalDist().inv_cdf(p)


def _quantile(level: float) -> float:
    """The two-sided normal quantile of a confidence level."""
    if not 0.0 < level < 1.0:
        raise ModelError(f"confidence level {level} outside (0, 1)")
    return normal_quantile((1.0 + level) / 2.0)


def _limits(point, value, count, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Normal-approximation limits point +/- z * sqrt(value / count), of one
    cell or of every cell of a column."""
    half = z * np.sqrt(value / count)
    return point - half, point + half


def confidence_interval(
    estimate: CellEstimate, av: AsymptoticVariance, level: float = 0.95
) -> ConfidenceInterval:
    """Normal-approximation interval: point +/- z * sqrt(av / count)."""
    z = _quantile(level)
    if estimate.count <= 0:
        raise NoDataError(f"no data at node {estimate.node}")
    if estimate.node != av.node:
        raise ModelError(
            f"estimate node {estimate.node} does not match variance node {av.node}"
        )
    if not np.isfinite(av.value):
        raise StatisticalError(f"non-finite asymptotic variance at {av.node}")
    point = estimate.mean if av.target == "mean" else estimate.variance
    lower, upper = _limits(point, av.value, estimate.count, z)
    return ConfidenceInterval(
        point=point, lower=float(lower), upper=float(upper), level=level,
        count=estimate.count,
    )
