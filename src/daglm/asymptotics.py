"""Closed-form asymptotic variances for the cell estimators, their plug-in
versions computed from data, and normal-approximation confidence intervals.

Every estimator error, scaled by the square root of the cell's visit count,
is asymptotically normal; the limiting variance depends on the estimator
family (regime "knownQ" for exact-ratio weighting, "unknownQ" for empirical
ratios) and on the statistic (cell mean or cell variance). It is the
variance of one scalar influence term per record, written as a sum over
paths of a weight squared times a 1x1 block, the path's share of that
variance. In the known-source regime the term is b*C (mean) or, by the
delta method, b^2*C - 2 mu b*C (variance), and the paths fold into one
block of weight 1. In the unknown-source regime, whose ratios are
estimated, the term on a path is C times b (mean) or (b - mu)^2
(variance) less its path mean, so the block is p Var[b | path] or
p Var[(b - mu)^2 | path] and the weight is C. Each block is checked for
sign on its own; no dense matrix is formed.

The plug-in forms reduce a per-path table of the observed paths through the
cell (share of records, ratio, target probability, raw response moments),
built from the dataset's grouped power sums; the naive estimators are the
known-source regime with unit ratios. The known-source regime folds the
paths into one block; the unknown-source regime keeps one block per distinct
observed path. Each table has one row per replicate: one dataset is a table
of one row, a Monte-Carlo study has a row for each of its replicates, and
every check and value is computed row by row.

The closed forms fold every regime into one block per node. Its entries are
sums over the support paths, which the forward-backward recursion of
:mod:`daglm.oracle` gives under the target kernel T and the tilted T^2/Q
without listing the paths: a path's weight C^2 p is its T^2/Q product times
p_Q / p_T^2, the node marginals.
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
    _cell_weights,
    _CellWeights,
    _path_sum,
    _refuse,
)
from .model import (
    PathDataset,
    QualityModel,
    TransitionKernel,
)
from .oracle import PSD_ATOL, _closed_form_sums

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


@dataclass(frozen=True)
class _Contracted:
    """The asymptotic variance of every replicate row of a path table: the
    per-path blocks (R, m, 1), their weights (R, m) and the contracted
    values (R,)."""

    node: tuple[int, int]
    target: str
    regime: str
    blocks: np.ndarray
    weights: np.ndarray
    value: np.ndarray
    clipped: np.ndarray

    def row(self, r: int = 0) -> AsymptoticVariance:
        """The asymptotic variance of row ``r``."""
        blocks = self.blocks[r]
        blocks.setflags(write=False)
        return AsymptoticVariance(
            node=self.node, target=self.target, regime=self.regime,
            value=float(self.value[r]), blocks=blocks, contraction=self.weights[r],
            clipped=bool(self.clipped[r]),
        )


def _finalize(
    node: tuple[int, int], target: str, regime: str, weights: np.ndarray, blocks: np.ndarray
) -> _Contracted:
    """Check and contract, row by row, a variance given by its per-path 1x1
    ``blocks`` (R, m) and their ``weights`` (m,) or (R, m): the value is the
    sum of weight^2 * block. A block is checked against its own magnitude
    (at least 1), so it counts as negative below -PSD_ATOL; the value counts
    as negative below -PSD_ATOL times the largest block magnitude of its
    row."""
    lowest = blocks.min(axis=-1)
    _refuse(lowest < -PSD_ATOL, StatisticalError,
            lambda r: f"asymptotic covariance at node {node} not positive semidefinite "
            f"(min eigenvalue {lowest[r]:.3g})")
    value = _path_sum(weights * blocks * weights)
    scale = np.abs(blocks).max(axis=-1, initial=1.0)
    _refuse(value < -PSD_ATOL * scale, StatisticalError,
            lambda r: f"negative asymptotic variance {value[r]:.3g}")
    clipped = value < 0.0
    weights = np.broadcast_to(weights, blocks.shape)
    return _Contracted(node, target, regime, blocks[..., None], weights,
                       np.where(clipped, 0.0, value), clipped)


def _known_fold(
    node: tuple[int, int], which: str, y: np.ndarray, w: np.ndarray
) -> _Contracted:
    """Known-source regime: the estimator averages y = b*C (mean) or
    x - y^2 with x = b^2*C (variance) over records, so its limiting
    variance is Var[y], or by the delta method Var[x - 2 mu y]. ``y[k]``
    and ``w[k]`` are E[C b^k] and E[C^2 b^k] under the source, one entry
    per row: the paths fold into one block per row, of weight 1."""
    mu = y[1]  # E[y] = target mean
    var_y = w[2] - mu * mu
    if which == "mean":
        return _finalize(node, "mean", REGIME_KNOWN, np.ones(1), var_y[:, None])
    ex = y[2]
    var_x = w[4] - ex * ex
    cov = w[3] - ex * mu
    block = var_x - 4.0 * mu * cov + 4.0 * mu * mu * var_y
    return _finalize(node, "variance", REGIME_KNOWN, np.ones(1), block[:, None])


def _unknown_av(
    node: tuple[int, int],
    which: str,
    prob: np.ndarray,
    ratio: np.ndarray,
    moments: np.ndarray,
    target: np.ndarray,
) -> _Contracted:
    """Unknown-source regime: the per-path variance of b (mean) or of
    (b - mu)^2 (variance), scaled by the path's share ``prob`` and weighted
    by its ratio C. ``moments`` (R, m, 5) holds the raw moments E[b^k | path]
    and ``target`` the target conditional probabilities of the paths."""
    m1, m2 = moments[..., 1], moments[..., 2]
    var_b = m2 - m1 * m1
    if which == "mean":
        return _finalize(node, "mean", REGIME_UNKNOWN, ratio, prob * var_b)
    mu = _path_sum(target * m1)[:, None]
    var_b2 = moments[..., 4] - m2 * m2
    cov_b2_b = moments[..., 3] - m2 * m1
    block = prob * (var_b2 - 4.0 * mu * cov_b2_b + 4.0 * mu * mu * var_b)
    return _finalize(node, "variance", REGIME_UNKNOWN, ratio, block)


def _known_closed_form(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
    which: str,
) -> AsymptoticVariance:
    """The known-source regime folded from the path sums E[C b^k] (the
    target's conditional moments) and E[C^2 b^k]."""
    order = 2 if which == "mean" else 4
    y, w = _closed_form_sums(kernel, target, quality, j, i, order)
    return _known_fold((i, j), which, y[:, None], w[:, None]).row()


def asym_var_mean_known(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the exact-ratio weighted cell mean: the source
    kernel's conditional variance of the weighted response b*C."""
    return _known_closed_form(kernel, target, quality, i, j, "mean")


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
    return _known_closed_form(kernel, target, quality, i, j, "variance")


def asym_var_mean_unknown(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the plugin cell mean: the sum over the support
    paths of C^2 p Var[b | path], folded into one 1x1 block with weight 1:
    the sum of C^2 p (E[Y^2 | path] - E[Y | path]^2) for Y = b - mu, from
    the same pass over the pair (Y, Y') as the plugin cell variance."""
    _, x = _closed_form_sums(kernel, target, quality, j, i, 2, pairs=True)
    return _finalize((i, j), "mean", REGIME_UNKNOWN, np.ones(1),
                     np.array([[x[2, 0] - x[1, 1]]])).row()


def asym_var_variance_unknown(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the plugin cell variance: the sum over the
    support paths of C^2 p Var[(b - mu)^2 | path], folded into one 1x1 block
    with weight 1.

    With Y = b - mu, Var[Y^2 | path] = E[Y^4 | path] - E[Y^2 Y'^2 | path]
    for a copy Y' of Y independent given the path. So one pass under T^2/Q
    over the pair (Y, Y'), started at -mu and carried to degree 4 in Y and 2
    in Y', gives the block.
    """
    _, x = _closed_form_sums(kernel, target, quality, j, i, 4, pairs=True)
    return _finalize((i, j), "variance", REGIME_UNKNOWN, np.ones(1),
                     np.array([[x[4, 0] - x[2, 2]]])).row()


def _kind_regime(kind: str) -> str:
    """The regime of an estimator kind's asymptotics: only the plugin
    estimator's ratios are estimated from the data."""
    return REGIME_UNKNOWN if _canonical_kind(kind) == KIND_PLUGIN else REGIME_KNOWN


def _weights_avs(weights: _CellWeights, which: str) -> _Contracted:
    """Plug-in asymptotic variance of the ``which`` estimate of the cell in
    every replicate, a reduction over its weights and grouped power sums.
    The unknown-source regime estimates per-path pieces and needs every
    distinct observed path through the cell at least twice."""
    if which not in ("mean", "variance"):
        raise ModelError(f"which must be 'mean' or 'variance', got {which!r}")
    cell = weights.cell
    observed = cell.counts > 0
    moments = np.divide(cell.sums, cell.counts[..., None],
                        out=np.zeros(cell.sums.shape), where=observed[..., None])
    prob = cell.counts / weights.n[:, None]
    if _kind_regime(weights.kind) == REGIME_KNOWN:
        pc = prob * weights.ratio
        m = np.moveaxis(moments, -1, 0)
        return _known_fold(weights.node, which, _path_sum(pc * m),
                           _path_sum(pc * weights.ratio * m))
    weights.check_support()
    once = cell.counts == 1
    _refuse(once.any(axis=-1), StatisticalError,
            lambda r: "insufficient per-path replication for plug-in asymptotics; "
            f"paths seen once: {[tuple(int(x) for x in p) for p in cell.paths[once[r]]]}")
    return _unknown_av(weights.node, which, prob, weights.ratio, moments, weights.target)


def _weights_av(weights: _CellWeights, which: str) -> AsymptoticVariance:
    """The plug-in asymptotic variance of a one-replicate cell (see
    :func:`_weights_avs`)."""
    return _weights_avs(weights, which).row()


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
    the source ``kernel``'s exact ratios (see :func:`_weights_av`)."""
    if regime == REGIME_KNOWN:
        if kernel is None:
            raise ModelError("knownQ regime needs the source kernel")
        kind = KIND_WEIGHTED
    elif regime == REGIME_UNKNOWN:
        kind = KIND_PLUGIN
    else:
        raise ModelError(f"unknown regime {regime!r}")
    return _weights_av(_cell_weights(data, i, j, kind, kernel, target), which)


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


def _limits(node, point, value, count, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Normal-approximation limits point +/- z * sqrt(value / count), for
    every replicate row."""
    _refuse(~np.isfinite(value), StatisticalError,
            lambda r: f"non-finite asymptotic variance at {node}")
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
    point = estimate.mean if av.target == "mean" else estimate.variance
    lower, upper = _limits(av.node, point, av.value, estimate.count, z)
    return ConfidenceInterval(
        point=point, lower=float(lower), upper=float(upper), level=level,
        count=estimate.count,
    )
