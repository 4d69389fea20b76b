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
support paths, and a quality model's node moments per shape and order
(:meth:`QualityModel._moment_table`) and, in one slot, every node's sums
for the last (kernel, target) pair asked about (:func:`_pair_sums`).

Support is decided entrywise as by the enumeration (entries at or below
``SUPPORT_ZERO`` count as 0), and the refusals are the enumeration's: a node
on no support path is a null event, and a node's missing or short quality
spec refuses only when the node lies on a support path through the node
asked about. A 0/1 reachability pass decides that, and runs only when some
spec is missing or short. The pass reads every node's moments; a node off
those support paths adds exact zeros to the sums.

The closed forms of :mod:`daglm.asymptotics` read their sums, already
weighted and rescaled, from :func:`_closed_form_sums`.

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
    _shift_moments,
    _split,
    conditional_path_probabilities,
    kernels_equivalent,
    node_marginal,
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
    probs = [conditional_path_probabilities(k, paths, j)[0] for k in kernels]
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

def _tilted(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """T^2/Q: a path's target probability times its ratio."""
    return t * t / q


def _reweighted(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Q (T/Q): a path's source probability times its ratio."""
    return q * (t / q)


def _read(
    kernels: Sequence[TransitionKernel], quality: QualityModel, j: int, i: int, order: int
) -> tuple[int, list[float]] | None:
    """The row of node (i, j) in the tables with one row per node and its
    marginal under each of ``kernels``; None when no support path of
    ``kernels[0]`` passes through the node. Refuses in the enumeration's
    order: a node outside the shape, a marginal at or below
    ``SUPPORT_ZERO``, then the first node, column by column, on the node's
    support paths whose spec cannot be read to ``order``; those paths are
    walked only when some spec cannot be read."""
    kernel = kernels[0]
    row = _node_row(kernel.levels, j, i)
    if not kernel._on_support[row]:
        return None
    marginals = [float(k._marginals[row]) for k in kernels]
    if min(marginals) <= SUPPORT_ZERO:
        raise _null_event(i, j)
    _, marked = quality._moment_table(kernel.levels, order)
    if marked.any():
        nodes = np.array(_nodes(kernel.levels))
        rows = np.flatnonzero(marked & _on_paths(kernel, (nodes[:, 1] != j) | (nodes[:, 0] == i)))
        if len(rows):
            quality._centred_moments(*nodes[rows[0]].tolist(), order)  # refuses
    return row, marginals


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


def _pair_sums(
    kernel: TransitionKernel, target: TransitionKernel, quality: QualityModel,
    entry: Callable[[np.ndarray, np.ndarray], np.ndarray], order: int, width: int,
) -> np.ndarray:
    """For every node, the sum over the support paths through it of the
    path weight times E[U^a | path] E[U^b | path], U = b - R, for a up to
    ``order`` and b below ``width``, as (node, 2, a, b): the sum of
    E[U^a U'^b | path] for a copy U' of U independent given the path. One
    pass runs two weightings on the support of ``kernel``, 0 off it: the
    entries t of ``target``, and ``entry(q, t)`` of t and the kernel's q.

    Built on first use per (entry, order, width) and kept in the quality
    model's one slot, which holds the (kernel, target) pair it was built
    for and is replaced when another pair is asked about. :func:`_read`
    refuses a node whose paths meet an unreadable spec before its row is read."""
    slot = quality._pair
    if slot is None or slot[0] is not kernel or slot[1] is not target:
        slot = kernel, target, {}
        object.__setattr__(quality, "_pair", slot)
    kept, key = slot[2], (entry, order, width)
    if key not in kept:
        on, fact = kernel._support, _FACTORIALS[: order + 1]
        q, t = np.where(on, kernel._entries, 1.0), target._entries
        entries = np.where(on, np.stack([t, entry(q, t)]), 0.0)
        e = quality._moment_table(kernel.levels, order)[0] / fact
        table = (e[:, :, None] * e[:, None, :width]).reshape(len(e), -1)
        sums = _path_sums(kernel.levels, entries, table, (order + 1, width))
        sums = np.moveaxis(sums, -1, 0).reshape(len(e), 2, order + 1, width)
        kept[key] = _frozen(sums * (fact[:, None] * fact[:width]))
    return kept[key]


def _closed_form_sums(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
    j: int,
    i: int,
    order: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The path sums behind the closed-form asymptotic variances at node
    (i, j), each an expectation under ``kernel`` given the node, with C the
    path's ratio of target to source conditional probability:

    - ``mu`` = R + y[1], the target mean E_T[b | node];
    - ``y``, E_T[(b - R)^k | node] for k = 0..order;
    - ``x`` (order + 1, 3), E[C^2 E[Y^a | path] E[Y^b | path]] for
      Y = b - mu, a = 0..order and b = 0..2, since a path's C^2 times its
      source probability is its T^2/Q product times p_Q / p_T^2, the node
      marginals.

    Refuses non-equivalent measures, then as :func:`_read`, and a node on
    no support path as a null event. Only then does it read the node's row
    of :func:`_pair_sums` under T and the tilted T^2/Q, both about R, and
    move ``x`` from R to mu on both axes (:func:`_shift_moments`).
    """
    if not kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    found = _read((kernel, target), quality, j, i, order)
    if found is None:
        raise _null_event(i, j)
    row, (p_q, p_t) = found
    sums, tilted = _pair_sums(kernel, target, quality, _tilted, order, 3)[row]
    y = sums[:, 0] / p_t
    x = _shift_moments(_shift_moments(tilted, -y[1]).T, -y[1]).T
    return quality._reference(len(kernel.levels)) + y[1], y, x * (p_q / p_t**2)


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
    separate weightings of the node's row of :func:`_pair_sums`, read after
    the refusals of :func:`_closed_form_sums`: the left runs under the
    entrywise product Q (T/Q), its ratios formed on the source support, and
    mixes by the source marginal; the right runs under T and mixes by the
    target marginal. So a small residual certifies the identity. A node on
    no support path has residual 0.
    """
    if f not in ("b", "b2"):
        raise ModelError(f"f must be 'b' or 'b2', got {f!r}")
    if not kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    order = 1 if f == "b" else 2
    found = _read((kernel, target), quality, j, i, order)
    if found is None:
        return 0.0
    row, (p_q, p_t) = found
    rhs, ratio_sum = _pair_sums(kernel, target, quality, _reweighted, order, 1)[row, :, order, 0]
    # a path's ratio C is its product of entrywise ratios times p_q / p_t
    lhs = ratio_sum * (p_q / p_t) / p_q
    return abs(float(lhs - rhs / p_t))


def exact_estimator_targets(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Limits of the reweighted estimators: conditional means and variances
    of b under ``target`` for every node, as (r_max, c) matrices, from one
    forward-backward pass under ``target``: R + m_1 and m_2 - m_1^2 for m of b - R.

    Nodes unreachable under ``kernel`` (no data would ever arrive there) and
    level slots beyond a column's range hold NaN. The refusal raised is that
    of the first node, in column order, whose :func:`exact_conditional_moments`
    under ``target`` refuses.
    """
    _check_same_shape(kernel, target)
    spec = kernel.spec()
    table, marked = quality._moment_table(spec.levels, 2)
    reached = kernel._marginals > SUPPORT_ZERO
    fine = target._on_support & (target._marginals > SUPPORT_ZERO)
    nodes = _nodes(spec.levels)
    # only a node that is not fine, or any node when a spec is unreadable,
    # can refuse
    for row in np.flatnonzero(reached & (~fine | marked.any())).tolist():
        i, j = nodes[row]
        if _read((target,), quality, j, i, 2) is None:
            raise _null_event(i, j)
    fact = _FACTORIALS[:3]
    entries = np.where(target._support, target._entries, 0.0)
    sums = _path_sums(spec.levels, entries, table / fact, (3,))
    m = sums * fact[:, None] / np.where(reached, target._marginals, np.nan)
    means = np.full((spec.r_max, spec.c), np.nan)
    variances = np.full((spec.r_max, spec.c), np.nan)
    at = tuple(np.array(nodes).T - 1)
    means[at] = quality._reference(spec.c) + m[1]
    variances[at] = m[2] - m[1] * m[1]
    return means, variances
