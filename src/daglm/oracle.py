"""Exact quantities of a model: the estimator targets, the path sums behind
the closed-form asymptotic variances, and the measure-change check, by a
forward-backward moment recursion; and the brute-force path enumeration that
the recursion is tested against.

Given its node in column j, a path's prefix and its suffix are independent,
so a sum over the support paths through node (i, j) of a path weight times a
moment of the path's response factors into a forward vector (over the
prefixes ending at the node) and a backward vector (over the suffixes after
it), each propagated one column at a time (Rabiner 1989; the expectation
semiring of Eisner 2002). Every level carries the exponential generating
coefficients E[(b - R)^n]/n! of the response up to the order needed, R the
sum of the column references (:meth:`QualityModel._reference`), so adding a
node's independent contribution (its moments about its column's reference)
is a Cauchy product, one lower-triangular Toeplitz matrix per node, and so
is joining a forward vector to a backward one; every sum stays at the scale
of the spread within the columns. A pass costs O(c r^2) per coefficient
under any weights: a kernel, the tilted T^2/Q, or Q (T/Q), and gives every
node's sums at once, its weightings stacked on a leading axis.

What one object alone determines is built on first use and kept on it: a
kernel's entries, their support, its node marginals and the nodes on its
support paths, and a quality model's node moments per shape
(:meth:`QualityModel._moment_table`) and, in one slot, for the last (kernel,
target) pair asked about, every node's closed-form blocks, residuals and
targets (:func:`_pair_table`), from one pass to order 4.

Support is decided entrywise as by the enumeration (entries at or below
``SUPPORT_ZERO`` count as 0), and the refusals are the enumeration's: a node
on no support path is a null event, and a node's missing or short quality
spec refuses only when the node lies on a support path through the node
asked about. A 0/1 reachability pass decides that, and runs only when some
spec is missing or short. The pass reads every node's moments; a node off
those support paths adds exact zeros to the sums.

:func:`_pair_table` holds all of the closed-form arithmetic and each node's
readable order; a closed form or residual reads that order and one entry,
and walks :func:`_read`, which words every refusal, only above that order.

``path_raw_moments``, ``support_table`` and ``exact_conditional_moments`` sum
over every support path explicitly and refuse models beyond the enumeration
cap; they are the reference the recursion is tested against.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

import numpy as np

from .errors import ModelError
from .model import (
    ENUMERATION_CAP,
    MAX_MOMENT_ORDER,
    SUPPORT_ZERO,
    PathLike,
    QualityModel,
    TransitionKernel,
    _backward,
    _check_same_shape,
    _forward,
    _frozen,
    _multiply,
    _node_row,
    _nodes,
    _null_event,
    _on_paths,
    _pascal,
    _shift_moments,
    _split,
    kernels_equivalent,
    node_marginal,
    path_probabilities,
    support_path_array,
)

def path_raw_moments(quality: QualityModel, path: PathLike, order: int) -> np.ndarray:
    """Raw moments (m_0..m_order) of the response b = sum of the path's
    independent node contributions, from the nodes' raw moments."""
    return _path_moment_table(lambda i, j, k: quality.node(i, j).raw_moments(k),
                              np.array([path], dtype=np.int64), order)[0]


def _path_moment_table(
    node_moments: Callable[[int, int, int], np.ndarray], paths: np.ndarray, order: int
) -> np.ndarray:
    """The moments (m_0..m_order) of the response of every row of an (m, c)
    array of paths, as an (m, order + 1) array: by binomial convolution of
    the ``node_moments(i, j, order)`` of its nodes (raw, or about the column
    references for moments of b - R), read only for nodes on some path."""
    m = np.zeros((len(paths), order + 1))
    m[:, 0] = 1.0
    for j, col in enumerate(paths.T, start=1):
        present, inverse = np.unique(col, return_inverse=True)
        node_table = np.array(
            [node_moments(lvl, j, order) for lvl in present.tolist()]
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
    under each kernel; and their (m, order + 1) moments of b - R.

    An unreachable node has an empty table (m = 0).
    """
    paths = support_path_array(kernels[0], j, i, cap)
    if not len(paths):
        return paths, [np.zeros(0) for _ in kernels], np.zeros((0, order + 1))
    for kernel in kernels:
        if node_marginal(kernel, j, i) <= SUPPORT_ZERO:
            raise _null_event(i, j)
    probs = [path_probabilities(k, paths)[0] / node_marginal(k, j, i) for k in kernels]
    return paths, probs, _path_moment_table(quality._centred_moments, paths, order)


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
        raise _null_event(i, j)
    return _shift_moments(cond @ moments, quality._reference(paths.shape[1]))[1:].tolist()


# ---------------------------------------------------------------------------
# the forward-backward recursion

#: n! for the orders up to MAX_MOMENT_ORDER
_FACTORIALS = np.array([math.factorial(n) for n in range(MAX_MOMENT_ORDER + 1)], dtype=float)

def _read(
    kernels: Sequence[TransitionKernel], quality: QualityModel, j: int, i: int, order: int
) -> int | None:
    """The row of node (i, j) in the tables with one row per node; None
    when no support path of ``kernels[0]`` passes through the node. Refuses
    in the enumeration's order: a node outside the shape, a marginal at or
    below ``SUPPORT_ZERO``, then the first node, column by column, on the
    node's support paths whose spec cannot be read to ``order``, walked only
    then. Run only above a node's stored order (:func:`_pair_row`)."""
    kernel = kernels[0]
    row = _node_row(kernel.levels, j, i)
    if not kernel._on_support[row]:
        return None
    if min(k._marginals[row] for k in kernels) <= SUPPORT_ZERO:
        raise _null_event(i, j)
    marked = quality._moment_table(kernel.levels)[1] < order
    if marked.any():
        nodes = np.array(_nodes(kernel.levels))
        rows = np.flatnonzero(marked & _on_paths(kernel, (nodes[:, 1] != j) | (nodes[:, 0] == i)))
        if len(rows):
            quality._centred_moments(*nodes[rows[0]].tolist(), order)  # refuses
    return row


@functools.cache
def _cauchy_index(shape: tuple[int, ...]) -> np.ndarray:
    """Gather index of the Cauchy-product matrix of coefficient arrays of
    ``shape``, flattened: entry (n, t) points at coefficient n - t, or past
    the end (at a 0) where an axis of n - t is negative."""
    grid = np.indices(shape).reshape(len(shape), -1)
    diff = grid[:, :, None] - grid[:, None, :]
    inside = (diff >= 0).all(axis=0)
    flat = np.ravel_multi_index(tuple(np.where(inside, diff, 0)), shape)
    index = np.where(inside, flat, grid.shape[1])
    index.setflags(write=False)
    return index


def _cauchy(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The matrices (..., D, D) that multiply a coefficient array by each of
    the arrays ``x`` (..., D), D = prod(shape), in the Cauchy product."""
    padded = np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
    return padded[..., _cauchy_index(shape)]


def _path_sums(
    levels: tuple[int, ...], entries: np.ndarray, table: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """For every node, the sum over the support paths through it of the
    path weight times the coefficients of the path's response, as
    (..., D, node) with the nodes column by column. The weights are kernel
    ``entries`` (..., F) end to end, optionally stacked on leading axes;
    ``table`` holds the coefficients (D,) of every node, one row per node;
    the response is 0 before column 1."""
    initial, steps = _split(levels, entries)
    start = np.eye(len(table[0]))[0]
    nodes = np.split(_cauchy(table, shape), np.cumsum(levels)[:-1])
    ahead = _forward(initial, steps, nodes, start)
    end = np.zeros(initial.shape[:-1] + (len(start), levels[-1]))
    end[..., 0, :] = 1.0
    behind = _backward(steps, end, nodes[1:])
    return np.concatenate([_multiply(_cauchy(b.swapaxes(-1, -2), shape), a)
                           for a, b in zip(ahead, behind)], axis=-1)


#: the columns of :func:`_pair_table`, by name
_COLUMNS = {name: k for k, name in enumerate((
    ("mean", "unknownQ"), ("mean", "knownQ"), ("variance", "unknownQ"), ("variance", "knownQ"),
    "b", "b2", "readable", "target mean", "target variance"))}


def _pair_table(
    kernel: TransitionKernel, target: TransitionKernel, quality: QualityModel
) -> tuple[np.ndarray | None, bool]:
    """Every node's closed-form blocks by (statistic, regime), residuals by
    f, readable order (the shape's lowest spec order where :func:`_read`
    answers, else -1) and target mean and variance, as (node, 9) in the
    columns ``_COLUMNS`` names; and whether the pair is equivalent. A pair
    of two shapes is not, and has no table.

    One pass runs three weightings: the entries t of ``target`` on its own
    support, and the tilted T^2/Q and Q (T/Q) on the support of ``kernel``,
    q the kernel's, each 0 off its support. It sums, over the support paths
    through each node, the path weight times E[U^a | path] E[U^b | path],
    U = b - R, a up to ``MAX_MOMENT_ORDER`` and b up to 2. The T sums give
    y = E_T[U^k | node], the target mean mu = R + y[1] and variance
    y[2] - y[1]^2. A path's C^2 p, C its ratio of target to source
    conditional probability, is its T^2/Q product times p_Q / p_T^2, the
    node marginals; so the tilted sums, moved from R to mu on both axes (a
    Pascal product per axis), give x[a, b] = E[C^2 E[Y^a | path] E[Y^b | path]],
    Y = b - mu. With phi = Y^d (d = 1 for the mean, 2 for the variance)
    plus k (mu, or -mu^2), the unknown-source block is the within-path term
    E[C^2 Var[Y^d | path]] = x[2d, 0] - x[d, d]. The known-source block adds
    the between-path term Var[C E[phi | path]], x[d, d] - m^2
    + 2k (x[d, 0] - m) + k^2 (x[0, 0] - 1) with m = E_T[Y^d], which rounds
    at k^2 E[C^2] and so, at a far mean, swamps a small Var[C].

    Kept with the flag, read-only, in the quality model's one slot, replaced
    when another pair is asked about. A closed form or residual is read only
    through :func:`_pair_row`, which refuses a pair not equivalent, at the
    order it needs (2d, or k for f = (b - R)^k), the targets after the
    refusals of :func:`exact_estimator_targets`; so the rows of nodes off the
    support, at a marginal at or below ``SUPPORT_ZERO`` or whose paths meet a
    short spec are never read."""
    if kernel.levels != target.levels:
        return None, False
    slot = quality._pair
    if slot is not None and slot[0] is kernel and slot[1] is target:
        return slot[2:]
    on, fact = kernel._support, _FACTORIALS
    q, t = np.where(on, kernel._entries, 1.0), target._entries
    entries = np.where([target._support, on, on], [t, t * t / q, q * (t / q)], 0.0)
    e = quality._moment_table(kernel.levels)[0] / fact
    table = (e[:, :, None] * e[:, None, :3]).reshape(len(e), -1)
    sums = _path_sums(kernel.levels, entries, table, (len(fact), 3))
    sums = np.moveaxis(sums, -1, 0).reshape(len(e), 3, len(fact), 3)
    sums *= fact[:, None] * fact[:3]
    p_q, p_t = kernel._marginals[:, None], target._marginals[:, None]
    with np.errstate(all="ignore"):  # rows never read divide by ~0
        y = sums[:, 0, :3, 0] / p_t
        mu = quality._reference(len(kernel.levels)) + y[:, 1]
        variance = y[:, 2] - y[:, 1] * y[:, 1]
        binomials, gaps = _pascal(len(fact))
        pascal = binomials * (-y[:, 1, None, None]) ** gaps
        scale = p_q / np.float_power(p_t, 2)

        def about_mu(n):  # x to order n - 1 on the first axis
            x = (pascal[:, :n, :n] @ sums[:, 1, :n]).swapaxes(1, 2)
            return (pascal[:, :3, :3] @ x).swapaxes(1, 2) * scale[:, :, None]

        answers = []
        for d, x, m, k in ((1, about_mu(3), 0.0, mu), (2, about_mu(5), variance, -mu * mu)):
            block = x[:, 2 * d, 0] - x[:, d, d]
            answers += [block, block + (x[:, d, d] - m * m + 2.0 * k * (x[:, d, 0] - m)
                                        + k * k * (x[:, 0, 0] - 1.0))]
        rhs, ratio_sums = sums[:, 0, 1:3, 0], sums[:, 2, 1:3, 0]
        residuals = np.abs(ratio_sums * (p_q / p_t) / p_q - rhs / p_t)
    readable = np.where(kernel._on_support & (np.minimum(p_q, p_t)[:, 0] > SUPPORT_ZERO),
                        quality._moment_table(kernel.levels)[1].min(), -1)
    slot = kernel, target, _frozen(np.column_stack(answers + [residuals, readable, mu, variance]))
    object.__setattr__(quality, "_pair", slot + (kernels_equivalent(kernel, target),))
    return quality._pair[2:]


def _pair_row(
    kernels: Sequence[TransitionKernel], quality: QualityModel, j: int, i: int, order: int
) -> tuple[np.ndarray, int | None]:
    """The :func:`_pair_table` of ``kernels`` (source, target) and node (i, j)'s
    row. Refuses a pair not equivalent, then a node outside the shape; only
    above its stored order, returns :func:`_read` at ``order`` (None off the support)."""
    table, equivalent = _pair_table(*kernels, quality)
    if not equivalent:
        raise ModelError("measures not equivalent")
    row = _node_row(kernels[0].levels, j, i)
    if order > table.item(row, _COLUMNS["readable"]):
        row = _read(kernels, quality, j, i, order)
    return table, row


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
    ``target``, where C is the ratio of conditional path probabilities and
    f(b) is (b - R)^k, k = 1 (``"b"``) or 2 (``"b2"``). The two sides are
    separate weightings of the pass of :func:`_pair_table`: the left runs
    under the entrywise product Q (T/Q), its ratios formed on the source
    support, and mixes by the source marginal (a path's C is its product of
    entrywise ratios times p_Q / p_T); the right runs under T and mixes by
    the target marginal. So a small residual certifies the identity.
    Refuses as :func:`_pair_row` at order k; a node on no support path has
    residual 0, any other reads its entry.
    """
    if f not in ("b", "b2"):
        raise ModelError(f"f must be 'b' or 'b2', got {f!r}")
    table, row = _pair_row((kernel, target), quality, j, i, 1 if f == "b" else 2)
    return 0.0 if row is None else table.item(row, _COLUMNS[f])


def exact_estimator_targets(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Limits of the reweighted estimators: conditional means and variances
    of b under ``target`` for every node, as (r_max, c) matrices, read from
    the pass of :func:`_pair_table`: R + m_1 and m_2 - m_1^2 for m of b - R.

    Nodes unreachable under ``kernel`` (no data would ever arrive there) and
    level slots beyond a column's range hold NaN. The refusal raised is that
    of the first node, in column order, whose :func:`exact_conditional_moments`
    under ``target`` refuses.
    """
    _check_same_shape(kernel, target)
    spec = kernel.spec()
    orders = quality._moment_table(spec.levels)[1]
    reached = kernel._marginals > SUPPORT_ZERO
    fine = target._on_support & (target._marginals > SUPPORT_ZERO)
    nodes = _nodes(spec.levels)
    # only a node that is not fine, or any node when a spec is unreadable,
    # can refuse
    for row in np.flatnonzero(reached & (~fine | (orders < 2).any())).tolist():
        i, j = nodes[row]
        if _read((target,), quality, j, i, 2) is None:
            raise _null_event(i, j)
    table = _pair_table(kernel, target, quality)[0]
    means, variances = (np.full((spec.r_max, spec.c), np.nan) for _ in range(2))
    at = tuple(np.array(nodes).T - 1)
    means[at] = np.where(reached, table[:, _COLUMNS["target mean"]], np.nan)
    variances[at] = np.where(reached, table[:, _COLUMNS["target variance"]], np.nan)
    return means, variances
