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
under any weight matrix: a kernel, the tilted T^2/Q, or Q (T/Q).

Support is decided entrywise as by the enumeration (entries at or below
``SUPPORT_ZERO`` count as 0), and the refusals are the enumeration's: a node
on no support path is a null event, and a node's quality spec is read only
when the node lies on a support path through the node asked about, which a
0/1 reachability pass decides.

The closed forms of :mod:`daglm.asymptotics` read their sums, already
weighted and rescaled, from :func:`_closed_form_sums`.

``path_raw_moments``, ``support_table`` and ``exact_conditional_moments`` sum
over every support path explicitly and refuse models beyond the enumeration
cap; they are the reference the recursion is tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Sequence

import numpy as np

from .errors import ModelError, StatisticalError
from .model import (
    ENUMERATION_CAP,
    MAX_MOMENT_ORDER,
    SUPPORT_ZERO,
    DagSpec,
    PathLike,
    QualityModel,
    TransitionKernel,
    _backward,
    _check_same_shape,
    _forward,
    _multiply,
    _reachable_nodes,
    _shift_moments,
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
    probs = [conditional_path_probabilities(k, paths, j, i)[0] for k in kernels]
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
        raise StatisticalError(
            f"conditioning on null event: node ({i}, {j}) is unreachable"
        )
    return _shift_moments(cond @ moments, quality._reference(paths.shape[1]))[1:].tolist()


# ---------------------------------------------------------------------------
# the forward-backward recursion

#: n! for the orders up to MAX_MOMENT_ORDER
_FACTORIALS = np.array([math.factorial(n) for n in range(MAX_MOMENT_ORDER + 1)], dtype=float)

#: an initial vector and step matrices of a kernel's shape
_Weights = tuple[np.ndarray, list[np.ndarray]]


def _null_event(i: int, j: int) -> StatisticalError:
    return StatisticalError(f"conditioning on null event: node ({i}, {j}) is unreachable")


def _flat(kernel: TransitionKernel) -> np.ndarray:
    """The initial vector and the step matrices of a kernel, end to end."""
    return np.concatenate([kernel.initial, *(s.ravel() for s in kernel.steps)])


def _weights(
    kernel: TransitionKernel,
    target: TransitionKernel | None = None,
    entry: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> _Weights:
    """Weights on the support of ``kernel`` and 0 off it: the kernel's own
    entries, or ``entry(q, t)`` of its entries q and the entries t of
    ``target``."""
    q = _flat(kernel)
    on = q > SUPPORT_ZERO
    if entry is None:
        flat = np.where(on, q, 0.0)
    else:
        flat = np.where(on, entry(np.where(on, q, 1.0), _flat(target)), 0.0)
    initial = flat[: len(kernel.initial)]
    steps, start = [], len(kernel.initial)
    for s in kernel.steps:
        steps.append(flat[start: start + s.size].reshape(s.shape))
        start += s.size
    return initial, steps


def _tilted(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """T^2/Q: a path's target probability times its ratio."""
    return t * t / q


def _reweighted(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Q (T/Q): a path's source probability times its ratio."""
    return q * (t / q)


def _on_paths(kernel: TransitionKernel, j: int, i: int) -> list[np.ndarray]:
    """For every column, the levels on a support path of ``kernel`` through
    node (i, j)."""
    initial, steps = kernel.initial > SUPPORT_ZERO, [s > SUPPORT_ZERO for s in kernel.steps]
    ahead = _forward(initial, steps[: j - 1])  # columns 1..j
    start = (np.arange(1, len(ahead[-1]) + 1) == i) & ahead[-1]
    after = _forward(start, steps[j - 1:])  # columns j..c
    reached = ahead[:-1] + after
    behind = _backward(steps[j - 1:], np.ones(len(after[-1]), dtype=bool))  # j..c
    before = _backward(steps[: j - 1], start & behind[0])  # columns 1..j
    return [a & b for a, b in zip(reached, before[:-1] + behind)]


def _node_moments(
    quality: QualityModel, on_path: Sequence[np.ndarray], order: int
) -> np.ndarray:
    """Moments to ``order`` about the column references of the nodes that
    ``on_path`` flags, one row per node column by column (sum r_k rows), read
    in that order as the enumeration reads them; 0 at every other node."""
    table = np.zeros((sum(len(flags) for flags in on_path), order + 1))
    row = 0
    for j, flags in enumerate(on_path, start=1):
        for i in np.flatnonzero(flags).tolist():
            table[row + i] = quality._centred_moments(i + 1, j, order)
        row += len(flags)
    return table


def _reach(
    kernels: Sequence[TransitionKernel], j: int, i: int
) -> tuple[list[np.ndarray], list[float]] | None:
    """The levels on the support paths of ``kernels[0]`` through node
    (i, j) (:func:`_on_paths`) and the node's marginal under each of
    ``kernels``; None when no support path passes through the node. Refuses
    in the enumeration's order: a node outside the shape, then a marginal at
    or below ``SUPPORT_ZERO``."""
    levels = kernels[0].levels
    if not 1 <= j <= len(levels) or not 1 <= i <= levels[j - 1]:
        raise ModelError(f"node ({i}, {j}) outside kernel shape")
    on_path = _on_paths(kernels[0], j, i)
    if not on_path[j - 1].any():
        return None
    marginals = []
    for kernel in kernels:
        marginals.append(node_marginal(kernel, j, i))
        if marginals[-1] <= SUPPORT_ZERO:
            raise _null_event(i, j)
    return on_path, marginals


def _through(
    kernels: Sequence[TransitionKernel], quality: QualityModel, j: int, i: int, order: int
) -> tuple[list[float], np.ndarray] | None:
    """The marginal of node (i, j) under each of ``kernels`` and the
    moments to ``order`` of the nodes on its support paths
    (:func:`_reach`, :func:`_node_moments`); None when no support path
    passes through the node. After the refusals of :func:`_reach`, refuses
    the first node spec that cannot be read."""
    found = _reach(kernels, j, i)
    if found is None:
        return None
    on_path, marginals = found
    return marginals, _node_moments(quality, on_path, order)


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
    weights: _Weights,
    table: np.ndarray,
    shape: tuple[int, ...],
    start: np.ndarray,
    j: int | None = None,
) -> list[np.ndarray]:
    """For every level of column j (of every column when j is None), the
    weighted sum over the support paths through it of the coefficients of
    the path's response: one (D, r) array per column. ``table`` holds the
    coefficients (D,) of every node, one row per node column by column, and
    ``start`` those of the response before column 1."""
    initial, steps = weights
    bounds = list(itertools.accumulate([initial.shape[-1]] + [s.shape[-1] for s in steps]))
    matrices = _cauchy(table, shape)
    nodes = [matrices[a:b] for a, b in zip([0] + bounds, bounds)]
    first, last = (1, len(nodes)) if j is None else (j, j)
    ahead = _forward(initial, steps[: last - 1], nodes[:last], start)[first - 1:]
    end = np.zeros(initial.shape[:-1] + (len(start), len(nodes[-1])))
    end[..., 0, :] = 1.0
    behind = _backward(steps[first - 1:], end, nodes[first:])
    return [_multiply(_cauchy(b.swapaxes(-1, -2), shape), a) for a, b in zip(ahead, behind)]


def _pair_sums(
    weights: _Weights, moments: np.ndarray, j: int, i: int, shift: float = 0.0, width: int = 1
) -> np.ndarray:
    """Sum over the support paths through (i, j) of the path weight times
    E[Y^a | path] E[Y^b | path], Y = b - R - shift, for a up to the order of
    the node ``moments`` (about the column references) and b below
    ``width``, as (a, b): the sum of E[Y^a Y'^b | path] for a copy Y' of Y
    independent given the path, in one pass over the pair."""
    fact = _FACTORIALS[: moments.shape[1]]
    shape = (len(fact), width)
    e = moments / fact
    table = (e[:, :, None] * e[:, None, :width]).reshape(len(e), -1)
    start = (-shift) ** np.arange(len(fact)) / fact
    sums = _path_sums(weights, table, shape, (start[:, None] * start[:width]).ravel(), j)[0]
    return sums[:, i - 1].reshape(shape) * (fact[:, None] * fact[:width])


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
    - ``y``, E_T[(b - R)^k | node] for k = 0..order, from a pass under T;
    - ``x`` (order + 1, 3), E[C^2 E[Y^a | path] E[Y^b | path]] for
      Y = b - mu, a = 0..order and b = 0..2, from one pass over the pair
      (Y, Y') (:func:`_pair_sums`) under the tilted T^2/Q, since a path's
      C^2 times its source probability is its T^2/Q product times
      p_Q / p_T^2, the node marginals.

    Refuses non-equivalent measures, then as :func:`_through`, and a node
    on no support path as a null event.
    """
    if not kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    found = _through((kernel, target), quality, j, i, order)
    if found is None:
        raise _null_event(i, j)
    (p_q, p_t), moments = found
    y = _pair_sums(_weights(target), moments, j, i)[:, 0] / p_t
    x = _pair_sums(_weights(kernel, target, _tilted), moments, j, i, y[1], 3)
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
    separate passes over the node moments of the common support: the left
    runs under the entrywise product Q (T/Q), its ratios formed on the
    source support, and mixes by the source marginal; the right runs under
    T and mixes by the target marginal. So a small residual certifies the
    identity. A node on no support path has residual 0.
    """
    if f not in ("b", "b2"):
        raise ModelError(f"f must be 'b' or 'b2', got {f!r}")
    if not kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    order = 1 if f == "b" else 2
    found = _through((kernel, target), quality, j, i, order)
    if found is None:
        return 0.0
    (p_q, p_t), moments = found
    ratio_sum = _pair_sums(_weights(kernel, target, _reweighted), moments, j, i)[order, 0]
    # a path's ratio C is its product of entrywise ratios times p_q / p_t
    lhs = ratio_sum * (p_q / p_t) / p_q
    rhs = _pair_sums(_weights(target), moments, j, i)[order, 0] / p_t
    return abs(float(lhs - rhs))


def exact_estimator_targets(
    kernel: TransitionKernel,
    target: TransitionKernel,
    quality: QualityModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Limits of the reweighted estimators: conditional means and variances
    of b under ``target`` for every node, as (r_max, c) matrices, from one
    forward-backward pass under ``target``: R + m_1 and m_2 - m_1^2 for m of b - R.

    Nodes unreachable under ``kernel`` (no data would ever arrive there) and
    level slots beyond a column's range hold NaN. The nodes are first
    checked one at a time in column order, so the refusal raised is that of
    the first node whose :func:`exact_conditional_moments` under ``target``
    refuses; each quality spec is read once.
    """
    _check_same_shape(kernel, target)
    spec: DagSpec = kernel.spec()
    on_path = [np.zeros(r, dtype=bool) for r in spec.levels]
    marginals = [np.full(r, np.nan) for r in spec.levels]
    table = np.zeros((sum(spec.levels), 3))
    for i, j in _reachable_nodes(kernel):
        found = _reach((target,), j, i)
        if found is None:
            raise _null_event(i, j)
        paths, (marginals[j - 1][i - 1],) = found
        table += _node_moments(quality, [p & ~o for p, o in zip(paths, on_path)], 2)
        on_path = [p | o for p, o in zip(paths, on_path)]
    fact = _FACTORIALS[:3]
    sums = _path_sums(_weights(target), table / fact, (3,), np.array([1.0, 0.0, 0.0]))
    means = np.full((spec.r_max, spec.c), np.nan)
    variances = np.full((spec.r_max, spec.c), np.nan)
    for j, (s, marginal) in enumerate(zip(sums, marginals)):
        m = s * fact[:, None] / marginal
        means[: len(marginal), j] = quality._reference(spec.c) + m[1]
        variances[: len(marginal), j] = m[2] - m[1] * m[1]
    return means, variances
