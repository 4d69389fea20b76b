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
    sum of weight^2 * block. Blocks are built from central moments, so they
    round at their own magnitude (at least 1): a block counts as negative
    below -PSD_ATOL, the value below -PSD_ATOL times the largest block
    magnitude of its row."""
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
    checked and clipped as by :func:`_finalize`, without its replicate rows.
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


def _weights_avs(weights: _CellWeights, which: str) -> _Contracted:
    """Plug-in asymptotic variance of the ``which`` estimate of the cell in
    every replicate, from each path's offset delta and central moments c_k
    (:attr:`_CellWeights.moments`): V = Var[phi | path] is c_2 for the mean and
    c_4 + 4 delta c_3 + 4 delta^2 c_2 - c_2^2 for the variance, and
    E[phi | path] = e + k with e = delta or c_2 + delta^2 and k = mu or
    -mu^2. The unknown-source regime keeps one block p V per path, of
    weight C, and needs every distinct observed path at least twice. The
    known-source regime folds the paths into one block of weight 1,
    sum p C^2 V + sum p (a + k (C - Cbar))^2 with a = C e - sum p C e and
    Cbar the weight total, exactly 1 for the naive estimator."""
    if which not in ("mean", "variance"):
        raise ModelError(f"which must be 'mean' or 'variance', got {which!r}")
    cell, ratio = weights.cell, weights.ratio
    mu, total, delta, c2, c3, c4 = weights.moments
    mu, total = mu[:, None], total[:, None]
    if which == "mean":
        within, part, k = c2, delta, mu
    else:
        within = c4 + 4.0 * delta * (c3 + delta * c2) - c2 * c2
        part, k = c2 + delta * delta, -mu * mu
    prob = cell.counts / weights.n[:, None]
    if _kind_regime(weights.kind) == REGIME_KNOWN:
        between = ratio * part - _path_sum(prob * ratio * part)[:, None] + k * (ratio - total)
        block = _path_sum(prob * (ratio * ratio * within + between * between))
        return _finalize(weights.node, which, REGIME_KNOWN, np.ones(1), block[:, None])
    weights.check_support()
    once = cell.counts == 1
    _refuse(once.any(axis=-1), StatisticalError,
            lambda r: "insufficient per-path replication for plug-in asymptotics; "
            f"paths seen once: {[tuple(int(x) for x in p) for p in cell.paths[once[r]]]}")
    return _finalize(weights.node, which, REGIME_UNKNOWN, ratio, prob * within)


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
