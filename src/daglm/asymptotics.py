"""Closed-form asymptotic variances for the cell estimators, their plug-in
versions computed from data, and normal-approximation confidence intervals.

Every estimator error, scaled by the square root of the cell's visit count,
is asymptotically normal; the limiting variance depends on the estimator
family (regime "knownQ" for exact-ratio weighting, "unknownQ" for empirical
ratios) and on the statistic (cell mean or cell variance). The variance
target uses a delta-method quadratic form: a small covariance matrix
contracted with a weight vector. For the unknown-source regime the matrix is
indexed by the distinct support paths through the node.

There is one formula per regime, a reduction over a per-path table (path
probability, ratio, target probability, raw response moments). The closed
forms pass exact tables built by enumerating the support; the plug-in forms
pass tables of the observed paths built from the dataset's grouped power
sums; the naive estimators are the known-source regime with unit ratios.

In the unknown-source variance formula the weight -2*mu*C(q) multiplies the
per-path b block and C(q) the b^2 block. The pairing is pinned by the
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

#: tolerance (relative to the largest matrix entry) for symmetry/PSD checks
PSD_ATOL = 1e-9

REGIME_KNOWN = "knownQ"
REGIME_UNKNOWN = "unknownQ"


@dataclass(frozen=True)
class AsymptoticVariance:
    """Limiting variance of sqrt(count) * (estimator - target) for one cell.

    ``value`` equals ``contraction @ matrix @ contraction``; the matrix is
    the (empirical or exact) covariance structure and, for the unknown-source
    regime, ``support_paths`` gives the path indexing of its blocks.
    """

    node: tuple[int, int]
    target: str  # "mean" | "variance"
    regime: str  # "knownQ" | "unknownQ"
    value: float
    matrix: np.ndarray
    contraction: np.ndarray
    support_paths: tuple[tuple[int, ...], ...] | None = None
    clipped: bool = False


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
    node: tuple[int, int],
    target: str,
    regime: str,
    diag,
    contraction,
    off=None,
    diag2=None,
    support_paths=None,
) -> AsymptoticVariance:
    """Check and contract a covariance matrix given by its per-path blocks.

    Each of the m paths owns a 1x1 block ``diag`` or, with ``off`` and
    ``diag2``, the 2x2 block [[diag, off], [off, diag2]] at rows and
    columns k and m + k of the dense 2m x 2m matrix. Positive
    semidefiniteness is checked block by block.
    """
    diag = np.asarray(diag, dtype=float)
    if off is None:
        matrix = np.diag(diag)
        min_eig = diag
    else:
        m = diag.size
        k = np.arange(m)
        matrix = np.zeros((2 * m, 2 * m))
        matrix[k, k] = diag
        matrix[m + k, m + k] = diag2
        matrix[k, m + k] = matrix[m + k, k] = off
        # the smaller eigenvalue of each 2x2 block
        min_eig = (diag + diag2) / 2.0 - np.hypot((diag - diag2) / 2.0, off)
    contraction = np.asarray(contraction, dtype=float)
    scale = max(1.0, float(np.abs(matrix).max()))
    if float(np.abs(matrix - matrix.T).max()) > PSD_ATOL * scale:
        raise StatisticalError(f"asymptotic covariance at node {node} not symmetric")
    lowest = float(min_eig.min())
    if lowest < -PSD_ATOL * scale:
        raise StatisticalError(
            f"asymptotic covariance at node {node} not positive semidefinite "
            f"(min eigenvalue {lowest:.3g})"
        )
    value = float(contraction @ matrix @ contraction)
    clipped = False
    if value < 0.0:
        if value < -PSD_ATOL * scale:
            raise StatisticalError(f"negative asymptotic variance {value:.3g}")
        value, clipped = 0.0, True
    matrix.setflags(write=False)
    contraction.setflags(write=False)
    return AsymptoticVariance(
        node=node,
        target=target,
        regime=regime,
        value=value,
        matrix=matrix,
        contraction=contraction,
        support_paths=support_paths,
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
        return _finalize(node, "mean", REGIME_KNOWN, [var_y], [1.0])
    ex = float(np.sum(pc * m[:, 2]))
    var_x = float(np.sum(pc2 * m[:, 4])) - ex * ex
    cov = float(np.sum(pc2 * m[:, 3])) - ex * mu
    return _finalize(
        node, "variance", REGIME_KNOWN, [var_x], [1.0, -1.0],
        off=[2.0 * mu * cov], diag2=[4.0 * mu * mu * var_y],
    )


def _unknown_av(node: tuple[int, int], which: str, t: _PathTable) -> AsymptoticVariance:
    """Unknown-source regime: per-path response variances scaled by the
    path probabilities, contracted with the ratio vector (mean; a diagonal
    matrix), or per-path 2x2 covariances of (b, b^2) contracted with
    (-2*mu*C, C) (variance)."""
    paths = tuple(map(tuple, t.paths.tolist()))
    m = t.moments
    var_b = m[:, 2] - m[:, 1] ** 2
    if which == "mean":
        return _finalize(
            node, "mean", REGIME_UNKNOWN, t.prob * var_b, t.ratio, support_paths=paths
        )
    var_b2 = m[:, 4] - m[:, 2] ** 2
    cov_b2_b = m[:, 3] - m[:, 2] * m[:, 1]
    mu = float(np.sum(t.target * m[:, 1]))
    return _finalize(
        node, "variance", REGIME_UNKNOWN, t.prob * var_b,
        np.concatenate([-2.0 * mu * t.ratio, t.ratio]),
        off=t.prob * cov_b2_b, diag2=t.prob * var_b2, support_paths=paths,
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

    Delta method on the pair (b^2*C, b*C): covariance matrix with the mean
    weight folded in, contracted with (1, -1).
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
    scaled by conditional path probabilities, contracted with the ratio
    vector. Always a diagonal matrix."""
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

    2m x 2m block structure over the m support paths: per-path variances of
    b and b^2 on the diagonal, their covariance linking the blocks, each
    scaled by the path's conditional probability; contracted with
    (-2*mu*C, C).
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


def cell_asym_var(
    data: PathDataset,
    i: int,
    j: int,
    kind: str,
    which: str = "mean",
    kernel: TransitionKernel | None = None,
    target: TransitionKernel | None = None,
) -> AsymptoticVariance:
    """Plug-in asymptotic variance of :func:`cell_estimate` of the same
    ``kind``: naive, known-source regime for weighted, unknown-source regime
    for plugin."""
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
