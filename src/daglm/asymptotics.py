"""Closed-form asymptotic variances for the cell estimators, their plug-in
versions computed from data, and normal-approximation confidence intervals.

Every estimator error, scaled by the square root of the cell's visit count,
is asymptotically normal; the limiting variance depends on the estimator
family (regime "knownQ" for exact-ratio weighting, "unknownQ" for empirical
ratios) and on the statistic (cell mean or cell variance). Each limiting
variance is a sum of per-path covariance blocks, each contracted with its
path's weights: a 1x1 block of Var[b | path] for a mean, a 2x2 block of the
covariance of (b, b^2) for a variance (the delta method). The known-source
regime folds the paths into one block; the unknown-source regime keeps one
block per distinct support path through the node. Positive
semidefiniteness is checked block by block; no dense matrix is formed.

There is one formula per regime, a reduction over a per-path table (path
probability, ratio, target probability, raw response moments). The closed
forms pass exact tables built by enumerating the support; the plug-in forms
pass tables of the observed paths built from the dataset's grouped power
sums; the naive estimators are the known-source regime with unit ratios.

In the unknown-source variance formula the weight -2*mu*C(q) multiplies the
b row of each path's block and C(q) its b^2 row. The pairing is pinned by the
single-path case, where the value must collapse to the centered fourth
moment minus the squared variance (the classical asymptotic variance of a
population-variance estimate), and is confirmed by Monte-Carlo variance
matching in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ModelError, NoDataError, StatisticalError
from .estimators import (
    KIND_NAIVE,
    KIND_PLUGIN,
    KIND_WEIGHTED,
    CellEstimate,
    _canonical_kind,
    _cell_weights,
    _CellWeights,
)
from .model import (
    PathDataset,
    QualityModel,
    TransitionKernel,
    kernels_equivalent,
)
from .oracle import support_table

#: tolerance, relative to the largest block entry (at least 1), below which
#: a block eigenvalue or a contracted value counts as negative
PSD_ATOL = 1e-9

REGIME_KNOWN = "knownQ"
REGIME_UNKNOWN = "unknownQ"


@dataclass(frozen=True)
class AsymptoticVariance:
    """Limiting variance of sqrt(count) * (estimator - target) for one cell.

    ``blocks`` holds one row per path: the 1x1 block (d,) of a mean, or the
    (d, o, d2) of the 2x2 covariance block [[d, o], [o, d2]] of a variance.
    ``contraction`` holds one weight per path, or the weights of the d
    entries followed by those of the d2 entries; ``value`` is the sum over
    paths of each block contracted with its weights.
    """

    node: tuple[int, int]
    target: str  # "mean" | "variance"
    regime: str  # "knownQ" | "unknownQ"
    value: float
    blocks: np.ndarray  # (m, 1) or (m, 3)
    contraction: np.ndarray  # (m,) or (2m,)
    clipped: bool = False

    @property
    def matrix(self) -> np.ndarray:
        """The dense covariance matrix of the blocks, built on every read:
        ``value`` equals ``contraction @ matrix @ contraction``. No daglm
        code reads it; the benchmark's ``asymptotics.matrix_cells`` counter
        and the tests do."""
        d = [np.diag(column) for column in self.blocks.T]
        matrix = d[0] if len(d) == 1 else np.block([[d[0], d[1]], [d[1], d[2]]])
        matrix.setflags(write=False)
        return matrix


@dataclass(frozen=True)
class _PathTable:
    """Per-path inputs of every asymptotic variance at one node.

    For the closed forms, the support paths with their exact source and
    target conditional probabilities and exact response moments. For the
    plug-in forms, the distinct observed paths with their share of the
    cell's records, their estimator weights and their empirical moments.
    Only the unknown-source formula reads ``target``.
    """

    paths: np.ndarray  # (m, c)
    prob: np.ndarray  # source conditional probability of each path
    ratio: np.ndarray  # per-record weight C (target over source)
    moments: np.ndarray  # (m, K + 1) raw moments E[b^k | path], k = 0..K
    target: np.ndarray | None = None  # target conditional probabilities


def _finalize(
    node: tuple[int, int], target: str, regime: str, contraction, *blocks
) -> AsymptoticVariance:
    """Check and contract a covariance given by its per-path blocks.

    ``blocks`` is the column d of 1x1 blocks, or the columns d, o, d2 of the
    2x2 blocks [[d, o], [o, d2]], whose rows are contracted with the weight
    pairs (c[k], c[m + k]). Positive semidefiniteness is checked block by
    block.
    """
    blocks = np.array(blocks, dtype=float).T
    contraction = np.asarray(contraction, dtype=float)
    if blocks.shape[1] == 1:
        min_eig = blocks[:, 0]
        weighted = contraction * min_eig
    else:
        diag, off, diag2 = blocks.T
        c1, c2 = contraction[: len(diag)], contraction[len(diag):]
        # the smaller eigenvalue of each 2x2 block
        min_eig = (diag + diag2) / 2.0 - np.hypot((diag - diag2) / 2.0, off)
        weighted = np.concatenate([c1 * diag + c2 * off, c1 * off + c2 * diag2])
    scale = max(1.0, float(np.abs(blocks).max()))
    lowest = float(min_eig.min())
    if lowest < -PSD_ATOL * scale:
        raise StatisticalError(
            f"asymptotic covariance at node {node} not positive semidefinite "
            f"(min eigenvalue {lowest:.3g})"
        )
    value = float(weighted @ contraction)
    clipped = False
    if value < 0.0:
        if value < -PSD_ATOL * scale:
            raise StatisticalError(f"negative asymptotic variance {value:.3g}")
        value, clipped = 0.0, True
    blocks.setflags(write=False)
    contraction.setflags(write=False)
    return AsymptoticVariance(
        node=node,
        target=target,
        regime=regime,
        value=value,
        blocks=blocks,
        contraction=contraction,
        clipped=clipped,
    )


def _known_av(node: tuple[int, int], which: str, t: _PathTable) -> AsymptoticVariance:
    """Known-source regime: the estimator averages y = b*C (mean) or
    x - y^2 with x = b^2*C (variance) over records, so its limiting
    variance is Var[y], or by the delta method the quadratic form of the
    covariance of (x, y) with the mean weight folded in, contracted with
    (1, -1)."""
    pc = t.prob * t.ratio
    pc2 = pc * t.ratio
    m = t.moments
    mu = float(np.sum(pc * m[:, 1]))  # E[y] = target mean
    var_y = float(np.sum(pc2 * m[:, 2])) - mu * mu
    if which == "mean":
        return _finalize(node, "mean", REGIME_KNOWN, [1.0], [var_y])
    ex = float(np.sum(pc * m[:, 2]))
    var_x = float(np.sum(pc2 * m[:, 4])) - ex * ex
    cov = float(np.sum(pc2 * m[:, 3])) - ex * mu
    return _finalize(
        node, "variance", REGIME_KNOWN, [1.0, -1.0],
        [var_x], [2.0 * mu * cov], [4.0 * mu * mu * var_y],
    )


def _unknown_av(node: tuple[int, int], which: str, t: _PathTable) -> AsymptoticVariance:
    """Unknown-source regime: per-path response variances scaled by the
    path probabilities, contracted with the ratio vector (mean; 1x1
    blocks), or per-path 2x2 covariances of (b, b^2) contracted with
    (-2*mu*C, C) (variance)."""
    m = t.moments
    var_b = m[:, 2] - m[:, 1] ** 2
    if which == "mean":
        return _finalize(node, "mean", REGIME_UNKNOWN, t.ratio, t.prob * var_b)
    var_b2 = m[:, 4] - m[:, 2] ** 2
    cov_b2_b = m[:, 3] - m[:, 2] * m[:, 1]
    mu = float(np.sum(t.target * m[:, 1]))
    return _finalize(
        node, "variance", REGIME_UNKNOWN, np.concatenate([-2.0 * mu * t.ratio, t.ratio]),
        t.prob * var_b, t.prob * cov_b2_b, t.prob * var_b2,
    )


def _cell_support(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    j: int,
    i: int,
    order: int,
) -> _PathTable:
    """Support paths through (i, j) with conditional probabilities under both
    kernels, their ratio, and per-path response moments."""
    if not kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    paths, (p, pt), moments = support_table((kernel, target), quality, j, i, order)
    if not len(paths):
        raise StatisticalError(
            f"conditioning on null event: node ({i}, {j}) is unreachable"
        )
    return _PathTable(paths=paths, prob=p, ratio=pt / p, moments=moments, target=pt)


def asym_var_mean_known(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the exact-ratio weighted cell mean: the source
    kernel's conditional variance of the weighted response b*C."""
    table = _cell_support(kernel, target, quality, j, i, order=2)
    return _known_av((i, j), "mean", table)


def asym_var_variance_known(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the exact-ratio weighted cell variance.

    Delta method on the pair (b^2*C, b*C): one 2x2 covariance block with
    the mean weight folded in, contracted with (1, -1).
    """
    table = _cell_support(kernel, target, quality, j, i, order=4)
    return _known_av((i, j), "variance", table)


def asym_var_mean_unknown(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the plugin cell mean: per-path response variances
    scaled by conditional path probabilities (1x1 blocks), contracted with
    the ratio vector."""
    table = _cell_support(kernel, target, quality, j, i, order=2)
    return _unknown_av((i, j), "mean", table)


def asym_var_variance_unknown(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the plugin cell variance.

    One 2x2 block per support path: the variances of b and b^2 and their
    covariance, scaled by the path's conditional probability; contracted
    with (-2*mu*C, C).
    """
    table = _cell_support(kernel, target, quality, j, i, order=4)
    return _unknown_av((i, j), "variance", table)


def _kind_regime(kind: str) -> str:
    """The regime of an estimator kind's asymptotics: only the plugin
    estimator's ratios are estimated from the data."""
    return REGIME_UNKNOWN if _canonical_kind(kind) == KIND_PLUGIN else REGIME_KNOWN


def _weights_av(weights: _CellWeights, which: str) -> AsymptoticVariance:
    """Plug-in asymptotic variance of the ``which`` estimate of the cell, a
    reduction over its weights and grouped power sums. The unknown-source
    regime estimates per-path pieces and needs every distinct observed path
    through the cell at least twice."""
    if which not in ("mean", "variance"):
        raise ModelError(f"which must be 'mean' or 'variance', got {which!r}")
    cell = weights.cell
    table = _PathTable(cell.paths, cell.counts / cell.n, weights.ratio,
                       cell.sums / cell.counts[:, None], weights.target)
    if _kind_regime(weights.kind) == REGIME_KNOWN:
        return _known_av(weights.node, which, table)
    weights.check_support()
    once = cell.counts < 2
    if once.any():
        paths = [tuple(int(x) for x in row) for row in cell.paths[once]]
        raise StatisticalError(
            "insufficient per-path replication for plug-in asymptotics; "
            f"paths seen once: {paths}"
        )
    return _unknown_av(weights.node, which, table)


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


def naive_asym_var(
    data: PathDataset, i: int, j: int, which: str = "mean"
) -> AsymptoticVariance:
    """Asymptotic variance of the naive cell estimators (the unit-ratio
    special case of the known-source regime, so no kernel is needed)."""
    return _weights_av(_cell_weights(data, i, j, KIND_NAIVE), which)


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


def confidence_interval(
    estimate: CellEstimate, av: AsymptoticVariance, level: float = 0.95
) -> ConfidenceInterval:
    """Normal-approximation interval: point +/- z * sqrt(av / count)."""
    if not 0.0 < level < 1.0:
        raise ModelError(f"confidence level {level} outside (0, 1)")
    if estimate.count <= 0:
        raise NoDataError(f"no data at node {estimate.node}")
    if estimate.node != av.node:
        raise ModelError(
            f"estimate node {estimate.node} does not match variance node {av.node}"
        )
    if not math.isfinite(av.value):
        raise StatisticalError(f"non-finite asymptotic variance at {av.node}")
    point = estimate.mean if av.target == "mean" else estimate.variance
    half = normal_quantile((1.0 + level) / 2.0) * math.sqrt(av.value / estimate.count)
    return ConfidenceInterval(
        point=point, lower=point - half, upper=point + half, level=level,
        count=estimate.count,
    )
