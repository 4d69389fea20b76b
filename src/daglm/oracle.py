"""Exact reference computations on small DAGs by full path enumeration.

Everything here is brute force on purpose: these functions are the ground
truth that the estimator and asymptotics modules are tested against. Each
sums over every support path through a node, vectorized with numpy over the
node's support table (paths, conditional probabilities, raw response
moments), and refuses models beyond the enumeration cap.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import ModelError, StatisticalError
from .model import (
    ENUMERATION_CAP,
    SUPPORT_ZERO,
    DagSpec,
    PathLike,
    QualityModel,
    TransitionKernel,
    conditional_path_probabilities,
    kernels_equivalent,
    node_marginal,
    support_path_array,
)

#: moments of the response are supported up to this order
MAX_MOMENT_ORDER = 4


def path_raw_moments(quality: QualityModel, path: PathLike, order: int) -> np.ndarray:
    """Raw moments (m_0..m_order) of the response b = sum of the path's
    independent node contributions.

    Composed by binomial convolution of per-node raw moment sequences, which
    is the moment-of-sums expansion grouped one node at a time.
    """
    return _path_moment_table(quality, np.array([path], dtype=np.int64), order)[0]


def _path_moment_table(
    quality: QualityModel, paths: np.ndarray, order: int
) -> np.ndarray:
    """:func:`path_raw_moments` of every row of an (m, c) array of paths, as
    an (m, order + 1) array.

    Only the quality specs of nodes that occur on some path are read.
    """
    if order > MAX_MOMENT_ORDER:
        raise ModelError(
            f"moment order {order} not supported (max {MAX_MOMENT_ORDER})"
        )
    m = np.zeros((len(paths), order + 1))
    m[:, 0] = 1.0
    for j, col in enumerate(paths.T, start=1):
        present, inverse = np.unique(col, return_inverse=True)
        node_table = np.array(
            [quality.node(lvl, j).raw_moments(order) for lvl in present.tolist()]
        ).reshape(-1, order + 1)
        node_m = node_table[inverse]
        m = np.column_stack([
            sum(math.comb(k, t) * m[:, t] * node_m[:, k - t] for t in range(k + 1))
            for k in range(order + 1)
        ])
    return m


def support_table(
    kernels: Sequence[TransitionKernel],
    quality: QualityModel,
    j: int,
    i: int,
    order: int,
    cap: int = ENUMERATION_CAP,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The support paths through node (i, j) of ``kernels[0]``, in
    lexicographic order, as an (m, c) array; their conditional probabilities
    under each kernel; and their (m, order + 1) raw response moments.

    An unreachable node has an empty table (m = 0).
    """
    paths = support_path_array(kernels[0], j, i, cap)
    if not len(paths):
        return paths, [np.zeros(0) for _ in kernels], np.zeros((0, order + 1))
    probs = [conditional_path_probabilities(k, paths, j, i)[0] for k in kernels]
    return paths, probs, _path_moment_table(quality, paths, order)


def exact_conditional_moments(
    kernel: TransitionKernel,
    quality: QualityModel,
    j: int,
    i: int,
    order: int = 2,
    cap: int = ENUMERATION_CAP,
) -> list[float]:
    """E[b^k | path passes through node (i, j)] for k = 1..order, exactly.

    Enumerates the support paths through the node, composes each path's
    moments from node moments, and mixes them with conditional path
    probabilities.
    """
    if order < 1 or order > MAX_MOMENT_ORDER:
        raise ModelError(f"moment order {order} outside 1..{MAX_MOMENT_ORDER}")
    paths, (cond,), moments = support_table((kernel,), quality, j, i, order, cap)
    if not len(paths):
        raise StatisticalError(
            f"conditioning on null event: node ({i}, {j}) is unreachable"
        )
    return (cond @ moments)[1:].tolist()


def verify_measure_change(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    j: int,
    i: int,
    f: str = "b",
) -> float:
    """Residual of the change-of-measure identity at node (i, j).

    Compares E[f(b)·C | node] under ``kernel`` against E[f(b) | node] under
    ``target``, where C is the ratio of conditional path probabilities. The
    two sides are computed through different code paths (ratio-weighted mix
    over the source support vs direct mix over the target support), so a
    small residual genuinely certifies the identity.
    """
    if f not in ("b", "b2"):
        raise ModelError(f"f must be 'b' or 'b2', got {f!r}")
    if not kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    order = 1 if f == "b" else 2

    _, (cond_q, cond_t), moments = support_table((kernel, target), quality, j, i, order)
    ratio = cond_t / cond_q
    lhs = float(np.sum(moments[:, order] * ratio * cond_q))

    _, (cond_t,), moments = support_table((target,), quality, j, i, order)
    rhs = float(np.sum(moments[:, order] * cond_t))

    return abs(lhs - rhs)


def exact_estimator_targets(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    cap: int = ENUMERATION_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Limits of the reweighted estimators: conditional means and variances
    of b under ``target`` for every node, as (r_max, c) matrices.

    Nodes unreachable under ``kernel`` (no data would ever arrive there) and
    level slots beyond a column's range hold NaN.
    """
    spec: DagSpec = kernel.spec()
    means = np.full((spec.r_max, spec.c), np.nan)
    variances = np.full((spec.r_max, spec.c), np.nan)
    for j, r in enumerate(spec.levels, start=1):
        for i in range(1, r + 1):
            if node_marginal(kernel, j, i) <= SUPPORT_ZERO:
                continue
            m1, m2 = exact_conditional_moments(target, quality, j, i, order=2, cap=cap)
            means[i - 1, j - 1] = m1
            variances[i - 1, j - 1] = m2 - m1 * m1
    return means, variances
