"""Closed-form asymptotic variances for the cell estimators, their plug-in
versions computed from data, and normal-approximation confidence intervals.

Every estimator error, scaled by the square root of the cell's visit count,
is asymptotically normal; the limiting variance depends on the estimator
family (regime "knownQ" for exact-ratio weighting, "unknownQ" for empirical
ratios) and on the statistic (cell mean or cell variance). It is the
variance of one scalar influence term per record, C phi, with phi = b for
the mean and, by the delta method, phi = b^2 - 2 mu b for the variance;
:func:`_influence_var` writes that expansion out, once. The variance is a
sum over paths of a weight squared times a 1x1 block, the path's share of
it. In the known-source regime the paths fold into one block of weight 1,
E[C^2 phi^2] - E[C phi]^2. In the unknown-source regime, whose ratios are
estimated, the term on a path is C times phi less its path mean, so the
block is p Var[phi | path] and the weight is C. Each block is checked for
sign on its own; no dense matrix is formed.

The plug-in forms reduce a per-path table of the observed paths through the
cell (share of records, ratio, target probability, raw response moments),
built from the dataset's grouped power sums; the naive estimators are the
known-source regime with unit ratios. The known-source regime folds the
paths into one block; the unknown-source regime keeps one block per distinct
observed path. Each table has one row per replicate: one dataset is a table
of one row, a Monte-Carlo study has a row for each of its replicates, and
every check and value is computed row by row.

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
    _cell_weights,
    _CellWeights,
    _path_sum,
    _refuse,
)
from .model import (
    PSD_ATOL,
    PathDataset,
    QualityModel,
    TransitionKernel,
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
            lambda r: f"negative asymptotic variance block at node {node} "
            f"(lowest {lowest[r]:.3g})")
    value = _path_sum(weights * blocks * weights)
    scale = np.abs(blocks).max(axis=-1, initial=1.0)
    _refuse(value < -PSD_ATOL * scale, StatisticalError,
            lambda r: f"negative asymptotic variance {value[r]:.3g}")
    clipped = value < 0.0
    weights = np.broadcast_to(weights, blocks.shape)
    return _Contracted(node, target, regime, blocks[..., None], weights,
                       np.where(clipped, 0.0, value), clipped)


def _influence_var(which: str, y: np.ndarray, w: np.ndarray, mu) -> np.ndarray:
    """The variance of the influence term phi of the ``which`` statistic:
    phi = b for the mean and, by the delta method, phi = b^2 - 2 mu b for
    the variance. It is E''[phi^2] - E'[phi]^2 for two weightings whose
    moments ``y[k]`` = E'[b^k] and ``w[k]`` = E''[b^k], k = 0..4, are given:
    C and C^2 in the known-source regime, the law given a path for both in
    the unknown-source regime. For the variance it is expanded as
    Var[b^2] - 4 mu Cov[b^2, b] + 4 mu^2 Var[b], each (co)variance formed
    as E''[b^(a+c)] - E'[b^a] E'[b^c] before the terms are combined."""
    var_b = w[2] - y[1] * y[1]
    if which == "mean":
        return var_b
    var_b2 = w[4] - y[2] * y[2]
    cov = w[3] - y[2] * y[1]
    return var_b2 - 4.0 * mu * cov + 4.0 * mu * mu * var_b


def _known_fold(
    node: tuple[int, int], which: str, y: np.ndarray, w: np.ndarray
) -> _Contracted:
    """Known-source regime: the estimator averages C phi over records, so
    its limiting variance is E[C^2 phi^2] - E[C phi]^2. ``y[k]`` and
    ``w[k]`` are E[C b^k] and E[C^2 b^k] under the source, one entry per
    row: the paths fold into one block per row, of weight 1."""
    block = _influence_var(which, y, w, y[1])  # E[C b] = target mean
    return _finalize(node, which, REGIME_KNOWN, np.ones(1), block[:, None])


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

    Known source: from the path sums E[C b^k] (the target's conditional
    moments) and E[C^2 b^k] (:func:`_known_fold`). Unknown source: the sum
    over the support paths of C^2 p Var[Y^d | path], Y = b - mu, with d = 1
    for the mean and d = 2 for the variance. Var[Y^d | path] =
    E[Y^2d | path] - E[Y^d Y'^d | path] for a copy Y' of Y independent given
    the path, so one pass under T^2/Q over the pair (Y, Y') gives the block.
    """
    d = 1 if which == "mean" else 2
    if regime == REGIME_KNOWN:
        y, w = _closed_form_sums(kernel, target, quality, j, i, 2 * d)
        return _known_fold((i, j), which, y[:, None], w[:, None]).row()
    _, x = _closed_form_sums(kernel, target, quality, j, i, 2 * d, pairs=True)
    return _finalize((i, j), which, REGIME_UNKNOWN, np.ones(1),
                     np.array([[x[2 * d, 0] - x[d, d]]])).row()


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
    m = np.moveaxis(moments, -1, 0)  # m[k] = E[b^k | path], (R, m)
    prob = cell.counts / weights.n[:, None]
    if _kind_regime(weights.kind) == REGIME_KNOWN:
        pc = prob * weights.ratio
        return _known_fold(weights.node, which, _path_sum(pc * m),
                           _path_sum(pc * weights.ratio * m))
    weights.check_support()
    once = cell.counts == 1
    _refuse(once.any(axis=-1), StatisticalError,
            lambda r: "insufficient per-path replication for plug-in asymptotics; "
            f"paths seen once: {[tuple(int(x) for x in p) for p in cell.paths[once[r]]]}")
    # each path's block is its share times Var[phi | path], of weight C
    mu = _path_sum(weights.target * m[1])[:, None]
    return _finalize(weights.node, which, REGIME_UNKNOWN, weights.ratio,
                     prob * _influence_var(which, m, m, mu))


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
    the source ``kernel``'s exact ratios (see :func:`_weights_avs`)."""
    if regime == REGIME_KNOWN:
        if kernel is None:
            raise ModelError("knownQ regime needs the source kernel")
        kind = KIND_WEIGHTED
    elif regime == REGIME_UNKNOWN:
        kind = KIND_PLUGIN
    else:
        raise ModelError(f"unknown regime {regime!r}")
    return _weights_avs(_cell_weights(data, i, j, kind, kernel, target), which).row()


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
