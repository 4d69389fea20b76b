"""Closed-form asymptotic variances for the cell estimators, their plug-in
versions computed from data, and normal-approximation confidence intervals.

Every estimator error, scaled by the square root of the cell's visit count,
is asymptotically normal; the limiting variance depends on the estimator
family (regime "knownQ" for exact-ratio weighting, "unknownQ" for empirical
ratios) and on the statistic (cell mean or cell variance). Each limiting
variance is a sum of per-path covariance blocks, each contracted with its
path's weights: a 1x1 block of Var[b | path] for a mean, a 2x2 block of the
covariance of (b, b^2) for a variance (the delta method). Positive
semidefiniteness is checked block by block; no dense matrix is formed.

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

In the unknown-source variance formula the weight -2*mu*C(q) multiplies the
b row of each path's block and C(q) its b^2 row (in the folded closed form,
-2*mu and 1 multiply the summed rows). The pairing is pinned by the
single-path case, where the value must collapse to the centered fourth
moment minus the squared variance (the classical asymptotic variance of a
population-variance estimate), and is confirmed by Monte-Carlo variance
matching in the test suite.
"""

from __future__ import annotations

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
    _path_sum,
    _refuse,
)
from .model import (
    PathDataset,
    QualityModel,
    TransitionKernel,
)
from .oracle import _closed_form_sums

#: tolerance, relative to the largest block entry (at least 1), below which
#: a block eigenvalue or a contracted value counts as negative
PSD_ATOL = 1e-9

REGIME_KNOWN = "knownQ"
REGIME_UNKNOWN = "unknownQ"


@dataclass(frozen=True)
class AsymptoticVariance:
    """Limiting variance of sqrt(count) * (estimator - target) for one cell.

    ``blocks`` holds one row per block: the 1x1 block (d,) of a mean, or the
    (d, o, d2) of the 2x2 covariance block [[d, o], [o, d2]] of a variance.
    A closed form and a known-source plug-in form have one block, the paths
    folded into it; an unknown-source plug-in form has one per observed
    path. ``contraction`` holds one weight per block, or the weights of the
    d entries followed by those of the d2 entries; ``value`` is the sum over
    blocks of each block contracted with its weights.
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
    """Per-path inputs of a plug-in asymptotic variance at one node, one row
    per replicate (a single row for one dataset): the distinct observed
    paths with their share of the cell's records, their estimator weights
    and their empirical moments, all 0 on a path that a replicate never saw.
    Only the unknown-source formula reads ``target``.
    """

    prob: np.ndarray  # (R, m) source conditional probability of each path
    ratio: np.ndarray  # (R, m) or (m,) per-record weight C (target over source)
    moments: np.ndarray  # (R, m, K + 1) raw moments E[b^k | path], k = 0..K
    target: np.ndarray | None = None  # (R, m) target conditional probabilities


@dataclass(frozen=True)
class _Contracted:
    """The asymptotic variance of every replicate row of a path table: the
    per-path blocks (R, m, 1) or (R, m, 3), their weights (one or two arrays
    (m,) or (R, m)) and the contracted values (R,)."""

    node: tuple[int, int]
    target: str
    regime: str
    blocks: np.ndarray
    weights: tuple[np.ndarray, ...]
    value: np.ndarray
    clipped: np.ndarray

    def row(self, r: int = 0) -> AsymptoticVariance:
        """The asymptotic variance of row ``r``."""
        blocks = self.blocks[r]
        contraction = np.concatenate([c[r] if c.ndim == 2 else c for c in self.weights])
        blocks.setflags(write=False)
        contraction.setflags(write=False)
        return AsymptoticVariance(
            node=self.node, target=self.target, regime=self.regime,
            value=float(self.value[r]), blocks=blocks, contraction=contraction,
            clipped=bool(self.clipped[r]),
        )


def _finalize(
    node: tuple[int, int], target: str, regime: str, weights: tuple, blocks: tuple
) -> _Contracted:
    """Check and contract, row by row, a covariance given by its per-path
    blocks.

    ``blocks`` is the column d of 1x1 blocks, contracted with the weight c
    of each path, or the columns d, o, d2 of the 2x2 blocks
    [[d, o], [o, d2]], contracted with the weight pair (c1, c2) of each path.
    Positive semidefiniteness is checked block by block.
    """
    if len(blocks) == 1:
        (diag,), (c,) = blocks, weights
        min_eig = diag
        terms = c * diag * c
    else:
        (diag, off, diag2), (c1, c2) = blocks, weights
        # the smaller eigenvalue of each 2x2 block
        min_eig = (diag + diag2) / 2.0 - np.hypot((diag - diag2) / 2.0, off)
        terms = np.concatenate(
            [(c1 * diag + c2 * off) * c1, (c1 * off + c2 * diag2) * c2], axis=-1
        )
    blocks = np.stack(blocks, axis=-1)
    scale = np.abs(blocks).max(axis=(1, 2), initial=1.0)
    lowest = min_eig.min(axis=-1)
    _refuse(lowest < -PSD_ATOL * scale, StatisticalError,
            lambda r: f"asymptotic covariance at node {node} not positive semidefinite "
            f"(min eigenvalue {lowest[r]:.3g})")
    value = _path_sum(terms)
    _refuse(value < -PSD_ATOL * scale, StatisticalError,
            lambda r: f"negative asymptotic variance {value[r]:.3g}")
    clipped = value < 0.0
    return _Contracted(node, target, regime, blocks, weights,
                       np.where(clipped, 0.0, value), clipped)


def _known_fold(
    node: tuple[int, int], which: str, y: np.ndarray, w: np.ndarray
) -> _Contracted:
    """Known-source regime: the estimator averages y = b*C (mean) or
    x - y^2 with x = b^2*C (variance) over records, so its limiting
    variance is Var[y], or by the delta method the quadratic form of the
    covariance of (x, y) with the mean weight folded in, contracted with
    (1, -1). ``y[k]`` and ``w[k]`` are E[C b^k] and E[C^2 b^k] under the
    source, one entry per row: the paths fold into one block per row."""
    mu = y[1]  # E[y] = target mean
    var_y = w[2] - mu * mu
    if which == "mean":
        return _finalize(node, "mean", REGIME_KNOWN, (np.ones(1),), (var_y[:, None],))
    ex = y[2]
    var_x = w[4] - ex * ex
    cov = w[3] - ex * mu
    return _finalize(
        node, "variance", REGIME_KNOWN, (np.ones(1), -np.ones(1)),
        (var_x[:, None], (2.0 * mu * cov)[:, None], (4.0 * mu * mu * var_y)[:, None]),
    )


def _known_av(node: tuple[int, int], which: str, t: _PathTable) -> _Contracted:
    """The known-source regime (:func:`_known_fold`) of a path table."""
    pc = t.prob * t.ratio
    m = np.moveaxis(t.moments, -1, 0)
    return _known_fold(node, which, _path_sum(pc * m), _path_sum(pc * t.ratio * m))


def _unknown_av(node: tuple[int, int], which: str, t: _PathTable) -> _Contracted:
    """Unknown-source regime: per-path response variances scaled by the
    path probabilities, contracted with the ratio vector (mean; 1x1
    blocks), or per-path 2x2 covariances of (b, b^2) contracted with
    (-2*mu*C, C) (variance)."""
    m = t.moments
    var_b = m[..., 2] - m[..., 1] ** 2
    if which == "mean":
        return _finalize(node, "mean", REGIME_UNKNOWN, (t.ratio,), (t.prob * var_b,))
    var_b2 = m[..., 4] - m[..., 2] ** 2
    cov_b2_b = m[..., 3] - m[..., 2] * m[..., 1]
    mu = _path_sum(t.target * m[..., 1])
    return _finalize(
        node, "variance", REGIME_UNKNOWN, (-2.0 * mu[:, None] * t.ratio, t.ratio),
        (t.prob * var_b, t.prob * cov_b2_b, t.prob * var_b2),
    )


#: the entries of the Hankel matrix of raw moments m_0..m_4
_HANKEL = np.add.outer(np.arange(3), np.arange(3))


def _check_realizable(moments: np.ndarray, levels: tuple[int, ...]) -> None:
    """Refuse a node, read at order 4, whose raw moments no distribution
    has: its Hankel matrix [[1, m1, m2], [m1, m2, m3], [m2, m3, m4]] is not
    positive semidefinite. ``moments`` has one row per node of ``levels``,
    column by column. Folding the unknown-source paths into one block could
    hide a path block that is not PSD; this check is at least as strict,
    since a path's (b, b^2) covariance is PSD exactly when its Hankel matrix
    is, and PSD Hankel sequences stay PSD under the convolution that adds a
    node."""
    hankel = moments[:, _HANKEL]
    lowest = np.linalg.eigvalsh(hankel)[:, 0]
    bad = lowest < -PSD_ATOL * np.abs(hankel).max(axis=(1, 2), initial=1.0)
    if bad.any():
        at = int(np.argmax(bad))
        ends = np.cumsum(levels)
        j = int(np.searchsorted(ends, at, side="right"))
        i = at - int(ends[j - 1] if j else 0) + 1
        raise StatisticalError(
            f"moments of node ({i}, {j + 1}) not realizable: Hankel matrix not "
            f"positive semidefinite (min eigenvalue {lowest[at]:.3g})"
        )


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
    y, w, _ = _closed_form_sums(kernel, target, quality, j, i, order)
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
    """Limiting variance of the exact-ratio weighted cell variance.

    Delta method on the pair (b^2*C, b*C): one 2x2 covariance block with
    the mean weight folded in, contracted with (1, -1).
    """
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
    _, x, _ = _closed_form_sums(kernel, target, quality, j, i, 2, pairs=True)
    return _finalize((i, j), "mean", REGIME_UNKNOWN, (np.ones(1),),
                     (np.array([[x[2, 0] - x[1, 1]]]),)).row()


def asym_var_variance_unknown(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    i: int,
    j: int,
) -> AsymptoticVariance:
    """Limiting variance of the plugin cell variance: the sum over the
    support paths of C^2 p times the 2x2 covariance of (b, b^2) given the
    path, folded into one block and contracted with (-2*mu, 1).

    With Y = b - mu, Var[Y^2 | path] = E[Y^4 | path] - E[Y^2 Y'^2 | path]
    for a copy Y' of Y independent given the path. So one pass under T^2/Q
    over the pair (Y, Y'), started at -mu and carried to degree 4 in Y and 2
    in Y', gives the sums of the covariance of (Y, Y^2); the block of
    (b, b^2) is their image under b = Y + mu. Nodes whose moments no
    distribution has are refused first (:func:`_check_realizable`).
    """
    y, x, moments = _closed_form_sums(kernel, target, quality, j, i, 4, pairs=True)
    _check_realizable(moments, kernel.levels)
    mu = y[1]
    # covariance sums of Y and Y^2, then of b = Y + mu and b^2 = Y^2 + 2 mu Y + mu^2
    var, cov, var2 = x[2, 0] - x[1, 1], x[3, 0] - x[2, 1], x[4, 0] - x[2, 2]
    blocks = (var, cov + 2.0 * mu * var, var2 + 4.0 * mu * cov + 4.0 * mu * mu * var)
    return _finalize(
        (i, j), "variance", REGIME_UNKNOWN, (np.array([-2.0 * mu]), np.ones(1)),
        tuple(np.array([[b]]) for b in blocks),
    ).row()


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
    table = _PathTable(cell.counts / weights.n[:, None], weights.ratio, moments,
                       weights.target)
    if _kind_regime(weights.kind) == REGIME_KNOWN:
        return _known_av(weights.node, which, table)
    weights.check_support()
    once = cell.counts == 1
    _refuse(once.any(axis=-1), StatisticalError,
            lambda r: "insufficient per-path replication for plug-in asymptotics; "
            f"paths seen once: {[tuple(int(x) for x in p) for p in cell.paths[once[r]]]}")
    return _unknown_av(weights.node, which, table)


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
