"""Layered-DAG path models: column specs, transition kernels, node quality
distributions, and path datasets.

Conventions used across the package:

* columns are numbered ``1..c`` and levels within column ``j`` are numbered
  ``1..r_j``; a path is a length-``c`` tuple of level indices (the source and
  sink of the DAG are implicit and never stored);
* matrix-valued summaries have shape ``(max(r), c)`` with node ``(i, j)`` at
  entry ``[i-1, j-1]``; entries beyond a column's level count hold 0 or NaN
  as documented per function;
* in every signature ``j`` names a column and ``i`` a level, both 1-based.

All types are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no synchronization; the
tables that one object alone determines are built on first use and kept.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import DataError, ModelError, StatisticalError

#: tolerance for probability-vector and row-stochasticity sums
ROW_SUM_ATOL = 1e-12
#: entries at or below this are treated as exact zeros for support purposes
SUPPORT_ZERO = 1e-15
#: default cap on the number of paths any enumeration is allowed to visit
ENUMERATION_CAP = 10_000_000
#: tolerance, relative to the largest entry of the matrix or block checked
#: (at least 1), below which an eigenvalue or a variance counts as negative
PSD_ATOL = 1e-9

PathLike = Sequence[int]


# ---------------------------------------------------------------------------
# specs and paths

@dataclass(frozen=True)
class DagSpec:
    """Shape of a layered DAG: level counts per column, optional labels.

    Deliberately constructible from invalid input; use :func:`validate_dag`
    to collect violations as data.
    """

    levels: tuple[int, ...]
    labels: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(r) for r in self.levels))
        if self.labels is not None:
            object.__setattr__(
                self, "labels", tuple(tuple(str(x) for x in col) for col in self.labels)
            )

    @property
    def c(self) -> int:
        return len(self.levels)

    @property
    def r_max(self) -> int:
        return max(self.levels) if self.levels else 0

    def label(self, j: int, i: int) -> str:
        """Display label of node (i, j); falls back to the level number."""
        if self.labels is not None and 1 <= j <= len(self.labels):
            col = self.labels[j - 1]
            if 1 <= i <= len(col):
                return col[i - 1]
        return str(i)


def validate_dag(spec: DagSpec) -> list[str]:
    """Collect structural violations; an empty list means the spec is valid."""
    problems: list[str] = []
    if spec.c < 1:
        problems.append("spec has no columns")
    for j, r in enumerate(spec.levels, start=1):
        if r < 1:
            problems.append(f"column {j} empty (level count {r})")
    if spec.labels is not None:
        if len(spec.labels) != spec.c:
            problems.append(
                f"label lists for {len(spec.labels)} columns, spec has {spec.c}"
            )
        else:
            for j, col in enumerate(spec.labels, start=1):
                if len(col) != spec.levels[j - 1]:
                    problems.append(
                        f"column {j} has {len(col)} labels for {spec.levels[j - 1]} levels"
                    )
                if len(set(col)) != len(col):
                    problems.append(f"column {j} labels not distinct")
    return problems


def _require_valid(spec: DagSpec) -> None:
    problems = validate_dag(spec)
    if problems:
        raise ModelError("invalid spec: " + "; ".join(problems))


def validate_path(path: PathLike, spec: DagSpec) -> tuple[int, ...]:
    """Check a path against a spec; returns it as a tuple of ints."""
    nodes = tuple(int(x) for x in path)
    if len(nodes) != spec.c:
        raise ModelError(f"path out of range: length {len(nodes)}, expected {spec.c}")
    for j, (lvl, r) in enumerate(zip(nodes, spec.levels), start=1):
        if not 1 <= lvl <= r:
            raise ModelError(f"path out of range: level {lvl} in column {j} (1..{r})")
    return nodes


# ---------------------------------------------------------------------------
# transition kernels

@dataclass(frozen=True)
class TransitionKernel:
    """Initial distribution over column 1 plus one row-stochastic step matrix
    per remaining column.

    ``steps[k]`` has shape (r_{k+1}, r_{k+2}) and maps levels of column k+1
    to levels of column k+2 (0-based list index). Every row is a
    probability vector.
    """

    initial: np.ndarray
    steps: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        initial = np.array(self.initial, dtype=float)
        steps = tuple(np.array(s, dtype=float) for s in self.steps)
        initial.setflags(write=False)
        for s in steps:
            s.setflags(write=False)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "steps", steps)
        self._validate()

    def _validate(self) -> None:
        if self.initial.ndim != 1 or self.initial.size < 1:
            raise ModelError("initial distribution must be a nonempty vector")
        _check_distribution(self.initial, "initial distribution")
        prev = self.initial.size
        for k, s in enumerate(self.steps):
            if s.ndim != 2 or s.shape[0] != prev:
                raise ModelError(
                    f"step {k + 1} has shape {s.shape}, expected ({prev}, *)"
                )
            for i, row in enumerate(s, start=1):
                _check_distribution(row, f"step {k + 1} row {i}")
            prev = s.shape[1]

    @cached_property
    def levels(self) -> tuple[int, ...]:
        return (self.initial.size,) + tuple(s.shape[1] for s in self.steps)

    @property
    def c(self) -> int:
        return len(self.steps) + 1

    def spec(self) -> DagSpec:
        return DagSpec(self.levels)

    @cached_property
    def _entries(self) -> np.ndarray:
        """The initial vector and the step matrices, end to end."""
        return _frozen(np.concatenate([self.initial, *(s.ravel() for s in self.steps)]))

    @cached_property
    def _support(self) -> np.ndarray:
        """Which of the entries exceed ``SUPPORT_ZERO``."""
        return _frozen(self._entries > SUPPORT_ZERO)

    @cached_property
    def _marginals(self) -> np.ndarray:
        """The marginal of every node, one entry per node column by column."""
        return _frozen(np.concatenate(_forward(self.initial, self.steps)))

    @cached_property
    def _on_support(self) -> np.ndarray:
        """Which nodes lie on a support path, as :attr:`_marginals`."""
        return _frozen(_on_paths(self, np.ones(sum(self.levels), dtype=bool)))


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.setflags(write=False)
    return array


def _check_distribution(vec: np.ndarray, what: str) -> None:
    if np.isnan(vec).any():
        raise ModelError(f"{what} contains NaN")
    if not np.isfinite(vec).all():
        raise ModelError(f"{what} contains non-finite entries")
    if (vec < 0).any():
        raise ModelError(f"{what} has negative entries")
    total = float(vec.sum())
    if abs(total - 1.0) > ROW_SUM_ATOL:
        raise ModelError(f"{what} sums to {total!r}, not 1")


def _check_same_shape(a: TransitionKernel, b: TransitionKernel) -> None:
    if a.levels != b.levels:
        raise ModelError(f"kernel shape mismatch: {a.levels} vs {b.levels}")


def uniform_kernel(spec: DagSpec) -> TransitionKernel:
    """Kernel under which columns are independent and uniform."""
    _require_valid(spec)
    r = spec.levels
    initial = np.full(r[0], 1.0 / r[0])
    steps = tuple(np.full((r[k], r[k + 1]), 1.0 / r[k + 1]) for k in range(spec.c - 1))
    return TransitionKernel(initial, steps)


def _nodes(levels: Sequence[int]) -> list[tuple[int, int]]:
    """The nodes (i, j) of ``levels``, column by column: the rows of the
    tables with one row per node."""
    return [(i, j) for j, r in enumerate(levels, start=1) for i in range(1, r + 1)]


def _node_row(levels: Sequence[int], j: int, i: int) -> int:
    """The row of node (i, j) in the tables with one row per node; refuses a
    node outside ``levels``."""
    if not 1 <= j <= len(levels) or not 1 <= i <= levels[j - 1]:
        raise ModelError(f"node ({i}, {j}) outside kernel shape")
    return sum(levels[: j - 1]) + i - 1


def _split(levels: Sequence[int], flat: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Entries (..., F) of a kernel of ``levels``, end to end, as its initial
    vector and step matrices, optionally stacked along leading axes."""
    steps, start = [], levels[0]
    for a, b in zip(levels, levels[1:]):
        steps.append(flat[..., start: start + a * b].reshape(flat.shape[:-1] + (a, b)))
        start += a * b
    return flat[..., : levels[0]], steps


def _on_paths(kernel: TransitionKernel, keep: np.ndarray) -> np.ndarray:
    """Which nodes lie on a support path of ``kernel`` that visits only the
    nodes ``keep`` flags, one flag per node column by column: a 0/1 forward
    and backward pass."""
    initial, steps = _split(kernel.levels, kernel._support)
    keep = np.split(keep, np.cumsum(kernel.levels)[:-1])
    steps = [s & k for s, k in zip(steps, keep[1:])]  # no entry into a node not kept
    ahead, behind = _forward(initial & keep[0], steps), _backward(steps, keep[-1])
    return np.concatenate([a & b for a, b in zip(ahead, behind)])


def _multiply(nodes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Multiply the coefficient vector of every level, column l of ``v``
    (..., D, r), by its node's matrix ``nodes[..., l]`` (..., r, D, D)."""
    return np.einsum("...lnt,...tl->...nl", nodes, v)


def _forward(
    initial: np.ndarray,
    steps: Sequence[np.ndarray],
    nodes: Sequence[np.ndarray] | None = None,
    start: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Forward vectors of columns 1..len(steps) + 1 under the weights
    ``initial`` and ``steps`` (a kernel's, or any others of its shape,
    optionally stacked along leading axes).

    Order 0 (``nodes`` None): entry l of column k is the total weight of the
    prefixes ending at level l, so under a kernel the marginal distribution
    of column k.

    With ``nodes``, each level carries instead a (D,) vector of
    coefficients: column k is (..., D, r_k), the weighted sum over those
    prefixes of the coefficients of the prefix's response, which starts from
    ``start`` (D,) and is multiplied at every node by ``nodes[k]``
    (r_k, D, D).
    """
    if nodes is None:
        v = initial
    else:
        v = _multiply(nodes[0], start[:, None] * initial[..., None, :])
    out = [v]
    for k, step in enumerate(steps):
        v = v @ step
        if nodes is not None:
            v = _multiply(nodes[k + 1], v)
        out.append(v)
    return out


def _backward(
    steps: Sequence[np.ndarray],
    end: np.ndarray,
    nodes: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Backward vectors of the columns that ``steps`` join, the counterpart
    of :func:`_forward`: entry l of a column is the total weight of the
    suffixes after level l, the last column's being ``end``. With ``nodes``,
    each level carries the weighted sum of the coefficients of the suffix's
    response, ``nodes[k]`` being the matrices of the column that
    ``steps[k]`` leads to, and ``end`` is (..., D, r)."""
    v = end
    out = [v]
    for k in reversed(range(len(steps))):
        if nodes is not None:
            v = _multiply(nodes[k], v)
        v = v @ steps[k].swapaxes(-1, -2)
        out.append(v)
    return out[::-1]


def _null_event(i: int, j: int) -> StatisticalError:
    return StatisticalError(f"conditioning on null event: node ({i}, {j}) is unreachable")


def node_marginal(kernel: TransitionKernel, j: int, i: int) -> float:
    """Probability that a random path passes through node (i, j)."""
    return float(kernel._marginals[_node_row(kernel.levels, j, i)])


def _reachable_nodes(kernel: TransitionKernel) -> list[tuple[int, int]]:
    """The nodes (i, j) whose marginal exceeds ``SUPPORT_ZERO``, column by
    column."""
    return [node for node, p in zip(_nodes(kernel.levels), kernel._marginals.tolist())
            if p > SUPPORT_ZERO]


def conditional_path_probability(
    kernel: TransitionKernel, path: PathLike, j: int, i: int
) -> float:
    """Probability of ``path`` given that the path passes through (i, j):
    one row of :func:`conditional_path_probabilities`."""
    nodes = validate_path(path, kernel.spec())
    if node_marginal(kernel, j, i) <= SUPPORT_ZERO:
        raise _null_event(i, j)
    (prob,), _ = conditional_path_probabilities(kernel, np.array([nodes]), j)
    return float(prob) if nodes[j - 1] == i else 0.0


def conditional_path_probabilities(
    kernel: TransitionKernel, paths: np.ndarray, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of the rows of an (m, c) array of 1-based paths, each
    given that the path passes through its own node of column j; 0 through
    a null event (marginal at or below ``SUPPORT_ZERO``), which callers refuse.

    Also returns a mask of the paths in the kernel's support, decided
    entrywise as in :func:`enumerate_support_paths`: every factor of the
    path's probability exceeds ``SUPPORT_ZERO``.
    """
    paths = np.asarray(paths, dtype=np.int64)
    if paths.shape[1:] != (kernel.c,) or ((paths < 1) | (paths > kernel.levels)).any():
        raise ModelError(f"paths do not fit the kernel's levels {kernel.levels}")
    rows = paths - 1
    factor = kernel.initial[rows[:, 0]]
    prob, supported = factor, factor > SUPPORT_ZERO
    for k, step in enumerate(kernel.steps):
        factor = step[rows[:, k], rows[:, k + 1]]
        prob = prob * factor
        supported = supported & (factor > SUPPORT_ZERO)
    marginal = kernel._marginals[_node_row(kernel.levels, j, 1) + rows[:, j - 1]]
    reachable = marginal > SUPPORT_ZERO
    return np.divide(prob, marginal, out=np.zeros(len(prob)), where=reachable), supported


def enumerate_support_paths(
    kernel: TransitionKernel,
    j: int | None = None,
    i: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> list[tuple[int, ...]]:
    """All positive-probability paths, optionally restricted to paths
    through node (i, j).

    Support is decided entrywise: kernel entries at or below
    ``SUPPORT_ZERO`` count as zero, so a path is included exactly when every
    factor in its probability is positive. Paths come in lexicographic
    order.
    """
    return list(map(tuple, support_path_array(kernel, j, i, cap).tolist()))


def support_path_array(
    kernel: TransitionKernel,
    j: int | None = None,
    i: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> np.ndarray:
    """:func:`enumerate_support_paths` as an (m, c) array of 1-based levels.

    Built one column at a time: every supported prefix is extended by each
    level its kernel row (or the initial distribution) gives positive mass.
    """
    levels = kernel.levels
    if math.prod(levels) > cap:
        raise ModelError(
            f"enumeration of {math.prod(levels)} paths exceeds cap {cap}; "
            "use sampling-based methods instead"
        )
    if (j is None) != (i is None):
        raise ModelError("node restriction needs both j and i")
    if j is not None:
        _node_row(levels, j, i)

    paths = np.zeros((1, 0), dtype=np.int64)
    for col, r in enumerate(levels):
        if col == 0:
            allowed = kernel.initial[None, :] > SUPPORT_ZERO
        else:
            allowed = kernel.steps[col - 1][paths[:, -1] - 1] > SUPPORT_ZERO
        if j is not None and col == j - 1:
            allowed[:, np.arange(r) != i - 1] = False
        prefix, lvl = np.nonzero(allowed)  # row-major, so lexicographic
        paths = np.column_stack([paths[prefix], lvl + 1])
    return paths


def kernels_equivalent(a: TransitionKernel, b: TransitionKernel) -> bool:
    """True iff the two kernels have identical strict-positivity patterns
    (equivalence of the induced path measures). Different shapes are simply
    not equivalent."""
    return a.levels == b.levels and np.array_equal(a._support, b._support)


# ---------------------------------------------------------------------------
# quality models

#: moments of the response are supported up to this order
MAX_MOMENT_ORDER = 4


@cache
def _pascal(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The binomials C(k, a), k, a < n, and the exponents max(k - a, 0)."""
    k, a = np.indices((n, n))
    return np.vectorize(math.comb)(k, a).astype(float), np.maximum(k - a, 0)


def _shift_moments(moments: np.ndarray, offset: float) -> np.ndarray:
    """The moments E[(X + d)^k], k = 0..K, of X moved by d = ``offset``,
    from its moments E[X^k]: the sum over a <= k of C(k, a) E[X^a] d^(k - a),
    one product with the Pascal matrix."""
    binomials, gaps = _pascal(len(moments))
    return (binomials * np.float64(offset) ** gaps) @ moments


def _moments_to(moments: np.ndarray, order: int) -> np.ndarray:
    """The moments 0..``order`` of moments 0..K; refuses an order above K."""
    n = len(moments)
    if order >= n:
        raise ModelError(f"moment order {n} not available (have m1..m{n - 1})")
    return moments[: max(order + 1, 0)]


#: each quality kind and its parameter fields, in the order model files
#: hold them; every field but ``moments`` (a list) is a scalar
_QUALITY_FIELDS = {
    "gaussian": ("mean", "variance"),
    "bernoulli": ("prob",),
    "point-mass": ("value",),
    "empirical-moments": ("moments",),
}


@dataclass(frozen=True)
class NodeQuality:
    """Distribution of one node's additive contribution to the response.

    Exactly one parameter set is used depending on ``kind``:
    gaussian(mean, variance), bernoulli(prob), point-mass(value), or
    empirical-moments(moments = raw moments m_1..m_K, K >= 2).
    """

    kind: str
    mean: float | None = None
    variance: float | None = None
    prob: float | None = None
    value: float | None = None
    moments: tuple[float, ...] | None = None
    #: E[X] and the moments about it (to MAX_MOMENT_ORDER, or K), computed once
    mean_value: float = field(init=False, repr=False, compare=False)
    _central: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _QUALITY_FIELDS:
            raise ModelError(f"unknown quality kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.mean is None or self.variance is None:
                raise ModelError("gaussian quality needs mean and variance")
            if not (self.variance >= 0):
                raise ModelError(f"negative variance {self.variance}")
            if not math.isfinite(self.mean) or not math.isfinite(self.variance):
                raise ModelError("gaussian quality needs a finite mean and variance")
            mean, v = float(self.mean), float(self.variance)
            central = [1.0, 0.0, v, 0.0, 3.0 * v * v]  # to MAX_MOMENT_ORDER
        elif self.kind == "bernoulli":
            if self.prob is None or not 0 <= self.prob <= 1:
                raise ModelError("bernoulli quality needs prob in [0, 1]")
            mean = float(self.prob)
            central = _shift_moments(np.array([1.0] + [mean] * MAX_MOMENT_ORDER), -mean)
        elif self.kind == "point-mass":
            if self.value is None or not math.isfinite(self.value):
                raise ModelError("point-mass quality needs a finite value")
            mean, central = float(self.value), [1.0] + [0.0] * MAX_MOMENT_ORDER
        else:  # empirical-moments
            if self.moments is None or len(self.moments) < 2:
                raise ModelError(
                    "empirical-moments quality needs raw moments m1..mK, K >= 2"
                )
            object.__setattr__(self, "moments", tuple(float(m) for m in self.moments))
            mean = self.moments[0]
            # a distribution's Hankel matrix of (1, m1, ..., m_min(K, 4)) is
            # positive semidefinite, and PSD Hankel sequences stay PSD under
            # the convolution that adds a node to a path: so no variance form
            # reads the moments of an impossible response. The matrix is built
            # from the moments of (X - m1) / sqrt(max(1, m2)), a congruence
            # that keeps PSD-ness, so a large mean cannot widen the tolerance
            # past the variance and kurtosis it judges; a matrix that is not
            # finite counts as min eigenvalue -inf
            order = 4 if len(self.moments) >= 4 else 2
            scale = math.sqrt(max(1.0, self.moments[1]))
            with np.errstate(all="ignore"):
                central = _shift_moments(np.array((1.0,) + self.moments), -mean)
                c = central[: order + 1] / scale ** np.arange(order + 1)
            size = order // 2 + 1
            hankel = np.array([c[a: a + size] for a in range(size)])
            finite = np.isfinite(hankel).all()
            lowest = float(np.linalg.eigvalsh(hankel)[0]) if finite else -math.inf
            if lowest < -PSD_ATOL * max(1.0, float(np.abs(hankel).max())):
                raise ModelError(
                    "moment sequence not realizable: Hankel matrix not positive "
                    f"semidefinite (min eigenvalue {lowest:.3g})"
                )
        object.__setattr__(self, "mean_value", mean)
        object.__setattr__(self, "_central", np.array(central, dtype=float))
        self._central.setflags(write=False)

    def raw_moments(self, order: int) -> np.ndarray:
        """Vector (m_0, m_1, ..., m_order) of raw moments: an empirical
        spec's own, else the central moments moved by the mean."""
        if self.moments is not None:
            return _moments_to(np.array((1.0,) + self.moments), order)
        return _moments_to(_shift_moments(self._central, self.mean_value), order)

    @property
    def variance_value(self) -> float:
        return float(self._central[2])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent values; moments-only specs cannot be
        sampled."""
        if self.kind == "gaussian":
            return rng.normal(self.mean, math.sqrt(self.variance), size)
        if self.kind == "bernoulli":
            return (rng.random(size) < self.prob).astype(float)
        if self.kind == "point-mass":
            return np.full(size, float(self.value))
        raise ModelError("cannot sample from an empirical-moments quality spec")

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "NodeQuality":
        return cls("gaussian", mean=float(mean), variance=float(variance))

    @classmethod
    def bernoulli(cls, prob: float) -> "NodeQuality":
        return cls("bernoulli", prob=float(prob))

    @classmethod
    def point_mass(cls, value: float) -> "NodeQuality":
        return cls("point-mass", value=float(value))

    @classmethod
    def from_raw_moments(cls, moments: Iterable[float]) -> "NodeQuality":
        return cls("empirical-moments", moments=tuple(moments))


gaussian = NodeQuality.gaussian
bernoulli = NodeQuality.bernoulli
point_mass = NodeQuality.point_mass
from_raw_moments = NodeQuality.from_raw_moments


@dataclass(frozen=True)
class QualityModel:
    """Per-node quality distributions keyed by (level i, column j), and
    each column's reference, the mean of its node means."""

    nodes: dict[tuple[int, int], NodeQuality] = field(default_factory=dict)
    _references: dict[int, float] = field(init=False, repr=False, compare=False)
    _prefix: list = field(init=False, repr=False, compare=False)
    _centred: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _pair: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        nodes = {(int(i), int(j)): q for (i, j), q in self.nodes.items()}
        means: dict[int, list[float]] = {}
        for (_, j), q in nodes.items():
            means.setdefault(j, []).append(q.mean_value)
        object.__setattr__(self, "nodes", nodes)
        references = {j: sum(m) / len(m) for j, m in means.items()}
        prefix = [0]
        for j in range(1, max(references, default=0) + 1):
            prefix.append(prefix[-1] + references.get(j, 0.0))
        object.__setattr__(self, "_references", references)
        object.__setattr__(self, "_prefix", prefix)

    def node(self, i: int, j: int) -> NodeQuality:
        try:
            return self.nodes[(i, j)]
        except KeyError:
            raise ModelError(f"no quality spec for node ({i}, {j})") from None

    def _centred_moments(self, i: int, j: int, order: int) -> np.ndarray:
        """Moments (m_0..m_order) of node (i, j) about its column's
        reference, computed once; refuses as :meth:`node` and
        :meth:`NodeQuality.raw_moments`."""
        if (i, j) not in self._centred:
            q = self.node(i, j)
            self._centred[(i, j)] = _shift_moments(q._central, q.mean_value - self._references[j])
        return _moments_to(self._centred[(i, j)], order)

    def _moment_table(self, levels: tuple[int, ...], order: int) -> tuple[np.ndarray, np.ndarray]:
        """The moments to ``order`` of every node of ``levels`` about its
        column's reference, one row per node column by column, and which
        nodes :meth:`_centred_moments` refuses (a spec missing or short of
        ``order``), whose rows hold 0; built on first use and kept."""
        if (levels, order) not in self._tables:
            nodes = _nodes(levels)
            marked = np.array([n not in self.nodes or len(self.nodes[n]._central) <= order
                               for n in nodes])
            table = np.zeros((len(nodes), order + 1))
            for row in np.flatnonzero(~marked).tolist():
                table[row] = self._centred_moments(*nodes[row], order)
            self._tables[(levels, order)] = _frozen(table), _frozen(marked)
        return self._tables[(levels, order)]

    def _reference(self, c: int) -> float:
        """R, the sum of the references of columns 1..c, added in order once."""
        return self._prefix[min(c, len(self._prefix) - 1)]


# ---------------------------------------------------------------------------
# datasets

def _path_cells(
    paths: np.ndarray,
    levels: Sequence[int],
    replicate: np.ndarray | None = None,
    replicates: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Index the rows of an (n, c) array of 1-based paths whose columns stay
    within ``levels``, each row belonging to one of ``replicates``
    replicates (``replicate``; all to one when None): the m distinct rows
    in lexicographic order, and each row's cell ``replicate * m + p`` of a
    (replicates, m) table, where p is the index of its path."""
    n = len(paths)
    # mixed-radix key of each path, lexicographic in the path; when the
    # next column would overflow it, the key is first renumbered densely
    key = np.zeros(n, dtype=np.int64)
    bound = 1
    for col, r in zip(paths.T, levels):
        r = int(r)
        if bound * r > 2**62:
            key = np.unique(key, return_inverse=True)[1]
            bound = n
        key = key * r + (col - 1)
        bound *= r
    if replicates * bound > n:
        # the key space is larger than the records: renumber it densely
        _, first, key = np.unique(key, return_index=True, return_inverse=True)
        distinct = paths[first]
    else:
        seen = np.bincount(key, minlength=bound) > 0
        distinct = np.stack(np.unravel_index(np.flatnonzero(seen), levels), axis=1) + 1
        key = (np.cumsum(seen) - 1)[key]
    if replicate is not None:
        key = replicate * len(distinct) + key
    return distinct, key


def _group_records(
    paths: np.ndarray,
    responses: np.ndarray,
    levels: Sequence[int],
    replicate: np.ndarray | None = None,
    replicates: int = 1,
) -> "PathGroups":
    """Records grouped by distinct path: the groups of one dataset, or, with
    each record's ``replicate``, the table of ``replicates`` replicates.
    Every group sums its records in record order: first the responses, then
    the powers of their deviations from the group's mean."""
    distinct, cells = _path_cells(paths, levels, replicate, replicates)
    size = replicates * len(distinct)
    counts = np.bincount(cells, minlength=size)
    sums = np.empty((size, PathGroups.ORDER + 1))
    sums[:, 0] = np.bincount(cells, weights=responses, minlength=size)
    means = np.divide(sums[:, 0], counts, out=np.zeros(size), where=counts > 0)
    deviation = responses - means[cells]
    power = deviation
    for k in range(1, PathGroups.ORDER + 1):
        sums[:, k] = np.bincount(cells, weights=power, minlength=size)
        power = power * deviation
    shape = (len(distinct),) if replicate is None else (replicates, len(distinct))
    return PathGroups(
        distinct, counts.reshape(shape), sums.reshape(*shape, PathGroups.ORDER + 1)
    )


@dataclass(frozen=True)
class PathGroups:
    """Distinct observed paths with per-path record counts and response
    sums: the only summary of a dataset the estimators and plug-in
    asymptotic variances need.

    ``paths`` is an (m, c) array of distinct paths in lexicographic order,
    ``counts`` the number of records on each, ``sums[p, 0]`` the sum of b
    over the records of path p, and ``sums[p, k]`` for k = 1..ORDER the sum
    of (b - mean)**k about its mean as rounded, ``sums[p, 0] / counts[p]``
    (so column 1 is that rounding times the count). Centred sums do not
    cancel under a shift of the response (Chan, Golub & LeVeque 1983).

    A table of replicates (a study's, :func:`_group_records`, or a
    dataset's, :attr:`PathDataset._table`) puts a leading replicate axis on
    ``counts`` (R, m) and ``sums`` (R, m, ORDER + 1); both are 0 on a path
    that a replicate never saw. The estimators reduce a table one column at
    a time, all of its levels at once.
    """

    ORDER = 4

    paths: np.ndarray
    counts: np.ndarray
    sums: np.ndarray

    @cached_property
    def moments(self) -> tuple[np.ndarray, ...]:
        """Per path (and replicate): whether it has records, its mean as
        rounded (0 where it has none), a_1, the rounding of that mean, and
        the central moments c_2, c_3, c_4; computed on first use and kept."""
        seen = self.counts > 0
        count = np.where(seen, self.counts, 1)
        a1, a2, a3, a4 = (self.sums[..., k] / count for k in range(1, 5))
        c2 = a2 - a1 * a1
        c3 = a3 - a1 * (3.0 * a2 - 2.0 * a1 * a1)
        c4 = a4 - a1 * (4.0 * a3 - a1 * (6.0 * a2 - 3.0 * a1 * a1))
        return seen, self.sums[..., 0] / count, a1, c2, c3, c4


def _handed_over(array, dtype) -> np.ndarray:
    """``array`` itself when it is handed over (see :class:`PathDataset`),
    else a copy."""
    if (isinstance(array, np.ndarray) and array.dtype == dtype and array.base is None
            and not array.flags.writeable):
        return array
    return _frozen(np.array(array, dtype=dtype))


@dataclass(frozen=True)
class PathDataset:
    """n observed paths with their responses.

    ``paths`` is an (n, c) integer array of 1-based levels; ``responses`` is
    the length-n response vector. Each is copied unless it is handed over: an
    int64 (float) array that owns its data and is read-only.
    """

    spec: DagSpec
    paths: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        paths = _handed_over(self.paths, np.int64)
        responses = _handed_over(self.responses, np.float64)
        if paths.ndim != 2 or paths.shape[1] != self.spec.c:
            raise DataError(
                f"paths array has shape {paths.shape}, expected (n, {self.spec.c})"
            )
        if responses.shape != (paths.shape[0],):
            raise DataError("responses length does not match number of paths")
        for j, r in enumerate(self.spec.levels, start=1):
            col = paths[:, j - 1]
            if col.size and (col.min() < 1 or col.max() > r):
                raise DataError(f"path level out of range in column {j}")
        if not np.isfinite(responses).all():
            raise DataError("responses must be finite")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "responses", responses)

    @property
    def n(self) -> int:
        return self.paths.shape[0]

    def count(self, j: int, i: int) -> int:
        self._check_node(j, i)
        groups = self.groups
        return int(groups.counts[groups.paths[:, j - 1] == i].sum())

    def _check_node(self, j: int, i: int) -> None:
        if not 1 <= j <= self.spec.c or not 1 <= i <= self.spec.levels[j - 1]:
            raise ModelError(f"node ({i}, {j}) outside spec")

    @cached_property
    def groups(self) -> PathGroups:
        """The records grouped by distinct path; computed on first use and
        kept, since the dataset never changes."""
        return _group_records(self.paths, self.responses, self.spec.levels)

    @cached_property
    def _table(self) -> PathGroups:
        """The dataset as a table of one replicate."""
        groups = self.groups
        return PathGroups(groups.paths, groups.counts[None], groups.sums[None])


def _joint_counts(data: PathDataset, columns: Sequence[int]) -> np.ndarray:
    """Number of records at each combination of levels of ``columns``
    (1-based), an array with one axis per column: one ``bincount`` over the
    distinct paths of ``data.groups``, weighted by their counts."""
    groups = data.groups
    shape = tuple(data.spec.levels[j - 1] for j in columns)
    cell = np.ravel_multi_index(tuple(groups.paths[:, j - 1] - 1 for j in columns), shape)
    counts = np.bincount(cell, weights=groups.counts, minlength=math.prod(shape))
    return counts.reshape(shape)


def estimate_kernel(data: PathDataset, smoothing: float = 0.0) -> TransitionKernel:
    """Empirical transition kernel of a dataset.

    Raw frequencies by default; ``smoothing`` adds that pseudocount to every
    transition cell. A level with no transitions out of it (one no record
    visits) is refused unless ``smoothing`` is positive.
    """
    if data.n == 0:
        raise DataError("cannot estimate a kernel from an empty dataset")
    r = data.spec.levels
    alpha = float(smoothing)
    if not math.isfinite(alpha):
        raise ModelError(f"smoothing must be finite, got {smoothing}")
    if alpha < 0:
        raise ModelError(f"smoothing must be nonnegative, got {smoothing}")
    if not math.isfinite(alpha * max(r) + data.n):
        raise ModelError(f"smoothing {smoothing} overflows the smoothed transition totals")

    initial = (_joint_counts(data, (1,)) + alpha) / (data.n + alpha * r[0])
    counts = [_joint_counts(data, (j, j + 1)) + alpha for j in range(1, data.spec.c)]
    empty = [(j, i + 1) for j, pair in enumerate(counts, start=1)
             for i in np.flatnonzero(pair.sum(axis=1) == 0).tolist()]
    if empty:
        rows = ", ".join(
            f"level {i} of column {j} ({data.spec.label(j, i)!r})" for j, i in empty
        )
        raise StatisticalError(
            f"no observed transitions out of {rows}; re-run with --smoothing > 0"
        )
    steps = [pair / pair.sum(axis=1, keepdims=True) for pair in counts]
    return TransitionKernel(initial, tuple(steps))
