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
function of its inputs, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, ModelError, StatisticalError

#: tolerance for probability-vector and row-stochasticity sums
ROW_SUM_ATOL = 1e-12
#: entries at or below this are treated as exact zeros for support purposes
SUPPORT_ZERO = 1e-15
#: default cap on the number of paths any enumeration is allowed to visit
ENUMERATION_CAP = 10_000_000
#: beyond this many columns, path probabilities are accumulated in log space
_LOG_SPACE_COLUMNS = 30

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

    def n_paths(self) -> int:
        return math.prod(self.levels)

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
    to levels of column k+2 (0-based list index). ``unobserved`` holds
    ``(j, i)`` node addresses whose outgoing row carries no information (all
    NaN); only :func:`estimate_kernel` produces such kernels, and operations
    that would condition on those rows refuse.
    """

    initial: np.ndarray
    steps: tuple[np.ndarray, ...] = ()
    unobserved: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        initial = np.array(self.initial, dtype=float)
        steps = tuple(np.array(s, dtype=float) for s in self.steps)
        initial.setflags(write=False)
        for s in steps:
            s.setflags(write=False)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "unobserved", frozenset(self.unobserved))
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
            for i in range(s.shape[0]):
                row = s[i]
                if (k + 1, i + 1) in self.unobserved:
                    if not np.isnan(row).all():
                        raise ModelError(
                            f"row flagged unobserved at node ({i + 1}, {k + 1}) "
                            "must be all-NaN"
                        )
                    continue
                _check_distribution(row, f"step {k + 1} row {i + 1}")
            prev = s.shape[1]
        for j, i in self.unobserved:
            if not 1 <= j <= len(self.steps) or not 1 <= i <= self.steps[j - 1].shape[0]:
                raise ModelError(f"unobserved flag ({j}, {i}) outside kernel shape")

    @property
    def levels(self) -> tuple[int, ...]:
        return (self.initial.size,) + tuple(s.shape[1] for s in self.steps)

    @property
    def c(self) -> int:
        return len(self.steps) + 1

    def spec(self) -> DagSpec:
        return DagSpec(self.levels)


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


def _refuse_unobserved(kernel: TransitionKernel, what: str) -> None:
    if kernel.unobserved:
        rows = ", ".join(f"({i}, {j})" for j, i in sorted(kernel.unobserved))
        raise StatisticalError(f"{what}: kernel has unobserved rows at nodes {rows}")


def uniform_kernel(spec: DagSpec) -> TransitionKernel:
    """Kernel under which columns are independent and uniform."""
    _require_valid(spec)
    r = spec.levels
    initial = np.full(r[0], 1.0 / r[0])
    steps = tuple(np.full((r[k], r[k + 1]), 1.0 / r[k + 1]) for k in range(spec.c - 1))
    return TransitionKernel(initial, steps)


def _as_path(path: PathLike, kernel: TransitionKernel) -> tuple[int, ...]:
    return validate_path(path, kernel.spec())


def path_probability(kernel: TransitionKernel, path: PathLike) -> float:
    """Probability of drawing ``path``: initial entry times step entries."""
    nodes = _as_path(path, kernel)
    factors = [kernel.initial[nodes[0] - 1]]
    for k in range(kernel.c - 1):
        factors.append(kernel.steps[k][nodes[k] - 1, nodes[k + 1] - 1])
    arr = np.array(factors)
    if np.isnan(arr).any():
        k = int(np.flatnonzero(np.isnan(arr))[0])
        raise StatisticalError(
            f"path traverses unobserved transition row at node ({nodes[k - 1]}, {k})"
        )
    if kernel.c > _LOG_SPACE_COLUMNS:
        if (arr <= 0.0).any():
            return 0.0
        return float(np.exp(np.log(arr).sum()))
    return float(arr.prod())


def _forward(kernel: TransitionKernel, j: int) -> np.ndarray:
    """Marginal distribution over the levels of column ``j`` by forward
    propagation (no enumeration)."""
    v = kernel.initial.copy()
    for k in range(j - 1):
        step = kernel.steps[k]
        clean = step
        if np.isnan(step).any():
            bad = np.isnan(step).all(axis=1)
            carrying = bad & (v > SUPPORT_ZERO)
            if carrying.any():
                i = int(np.flatnonzero(carrying)[0]) + 1
                raise StatisticalError(
                    f"cannot propagate through unobserved row at node ({i}, {k + 1})"
                )
            clean = np.where(np.isnan(step), 0.0, step)
        v = v @ clean
    return v


def node_marginal(kernel: TransitionKernel, j: int, i: int) -> float:
    """Probability that a random path passes through node (i, j)."""
    levels = kernel.levels
    if not 1 <= j <= len(levels) or not 1 <= i <= levels[j - 1]:
        raise ModelError(f"node ({i}, {j}) outside kernel shape")
    return float(_forward(kernel, j)[i - 1])


def conditional_path_probability(
    kernel: TransitionKernel, path: PathLike, j: int, i: int
) -> float:
    """Probability of ``path`` given that the path passes through (i, j)."""
    nodes = _as_path(path, kernel)
    marginal = node_marginal(kernel, j, i)
    if marginal <= SUPPORT_ZERO:
        raise StatisticalError(
            f"conditioning on null event: node ({i}, {j}) is unreachable"
        )
    if nodes[j - 1] != i:
        return 0.0
    return path_probability(kernel, nodes) / marginal


def conditional_path_probabilities(
    kernel: TransitionKernel, paths: np.ndarray, j: int, i: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`conditional_path_probability` for the rows of an
    (m, c) array of 1-based paths, all passing through node (i, j).

    Also returns a mask of the paths in the kernel's support, decided
    entrywise as in :func:`enumerate_support_paths`: every factor of the
    path's probability exceeds ``SUPPORT_ZERO`` (a factor from an
    unobserved, all-NaN row does not).
    """
    paths = np.asarray(paths, dtype=np.int64)
    if paths.shape[1:] != (kernel.c,) or ((paths < 1) | (paths > kernel.levels)).any():
        raise ModelError(f"paths do not fit the kernel's levels {kernel.levels}")
    marginal = node_marginal(kernel, j, i)
    if marginal <= SUPPORT_ZERO:
        raise StatisticalError(
            f"conditioning on null event: node ({i}, {j}) is unreachable"
        )
    rows = paths - 1
    factor = kernel.initial[rows[:, 0]]
    prob, supported = factor, factor > SUPPORT_ZERO
    for k, step in enumerate(kernel.steps):
        factor = step[rows[:, k], rows[:, k + 1]]
        prob = prob * factor
        supported = supported & (factor > SUPPORT_ZERO)
    return prob / marginal, supported


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
    A prefix ending at an unobserved (all-NaN) row cannot be extended and
    raises.
    """
    levels = kernel.levels
    if math.prod(levels) > cap:
        raise ModelError(
            f"enumeration of {math.prod(levels)} paths exceeds cap {cap}; "
            "use sampling-based methods instead"
        )
    if (j is None) != (i is None):
        raise ModelError("node restriction needs both j and i")
    if j is not None and (not 1 <= j <= len(levels) or not 1 <= i <= levels[j - 1]):
        raise ModelError(f"node ({i}, {j}) outside kernel shape")

    paths = np.zeros((1, 0), dtype=np.int64)
    for col, r in enumerate(levels):
        if col == 0:
            allowed = kernel.initial[None, :] > SUPPORT_ZERO
        else:
            rows = kernel.steps[col - 1][paths[:, -1] - 1]
            blocked = np.isnan(rows).all(axis=1)
            if blocked.any():
                lvl = int(paths[np.argmax(blocked), -1])
                raise StatisticalError(
                    f"cannot enumerate through unobserved row at node ({lvl}, {col})"
                )
            allowed = rows > SUPPORT_ZERO
        if j is not None and col == j - 1:
            allowed[:, np.arange(r) != i - 1] = False
        prefix, lvl = np.nonzero(allowed)  # row-major, so lexicographic
        paths = np.column_stack([paths[prefix], lvl + 1])
    return paths


def kernels_equivalent(a: TransitionKernel, b: TransitionKernel) -> bool:
    """True iff the two kernels have identical strict-positivity patterns
    (equivalence of the induced path measures). Different shapes are simply
    not equivalent."""
    if a.levels != b.levels:
        return False
    _refuse_unobserved(a, "equivalence test")
    _refuse_unobserved(b, "equivalence test")
    if ((a.initial > SUPPORT_ZERO) != (b.initial > SUPPORT_ZERO)).any():
        return False
    for sa, sb in zip(a.steps, b.steps):
        if ((sa > SUPPORT_ZERO) != (sb > SUPPORT_ZERO)).any():
            return False
    return True


# ---------------------------------------------------------------------------
# quality models

_QUALITY_KINDS = ("gaussian", "bernoulli", "point-mass", "empirical-moments")


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

    def __post_init__(self):
        if self.kind not in _QUALITY_KINDS:
            raise ModelError(f"unknown quality kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.mean is None or self.variance is None:
                raise ModelError("gaussian quality needs mean and variance")
            if not (self.variance >= 0):
                raise ModelError(f"negative variance {self.variance}")
        elif self.kind == "bernoulli":
            if self.prob is None or not 0 <= self.prob <= 1:
                raise ModelError("bernoulli quality needs prob in [0, 1]")
        elif self.kind == "point-mass":
            if self.value is None or not math.isfinite(self.value):
                raise ModelError("point-mass quality needs a finite value")
        else:  # empirical-moments
            if self.moments is None or len(self.moments) < 2:
                raise ModelError(
                    "empirical-moments quality needs raw moments m1..mK, K >= 2"
                )
            object.__setattr__(self, "moments", tuple(float(m) for m in self.moments))
            m1, m2 = self.moments[0], self.moments[1]
            if m2 - m1 * m1 < -ROW_SUM_ATOL:
                raise ModelError(
                    f"moment sequence not realizable: variance {m2 - m1 * m1}"
                )

    def raw_moment(self, k: int) -> float:
        """k-th raw moment E[X^k]; raises when the order is not available."""
        if k < 0:
            raise ModelError(f"moment order {k} invalid")
        if k == 0:
            return 1.0
        if self.kind == "gaussian":
            mu, var = float(self.mean), float(self.variance)
            m = [1.0, mu]
            for order in range(2, k + 1):
                m.append(mu * m[order - 1] + (order - 1) * var * m[order - 2])
            return m[k]
        if self.kind == "bernoulli":
            return float(self.prob)
        if self.kind == "point-mass":
            return float(self.value) ** k
        if k > len(self.moments):
            raise ModelError(
                f"moment order {k} not available (have m1..m{len(self.moments)})"
            )
        return self.moments[k - 1]

    def raw_moments(self, order: int) -> np.ndarray:
        """Vector (m_0, m_1, ..., m_order)."""
        return np.array([self.raw_moment(k) for k in range(order + 1)])

    @property
    def mean_value(self) -> float:
        return self.raw_moment(1)

    @property
    def variance_value(self) -> float:
        m1 = self.raw_moment(1)
        return self.raw_moment(2) - m1 * m1

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
    """Per-node quality distributions keyed by (level i, column j)."""

    nodes: dict[tuple[int, int], NodeQuality] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "nodes", {(int(i), int(j)): q for (i, j), q in self.nodes.items()}
        )

    @classmethod
    def gaussian_grid(cls, spec: DagSpec, means, variances) -> "QualityModel":
        """Gaussian node at every (i, j) with the given per-node mean and
        variance matrices (indexed [i-1, j-1])."""
        means = np.asarray(means, dtype=float)
        variances = np.asarray(variances, dtype=float)
        nodes = {}
        for j, r in enumerate(spec.levels, start=1):
            for i in range(1, r + 1):
                nodes[(i, j)] = gaussian(means[i - 1, j - 1], variances[i - 1, j - 1])
        return cls(nodes)

    def node(self, i: int, j: int) -> NodeQuality:
        try:
            return self.nodes[(i, j)]
        except KeyError:
            raise ModelError(f"no quality spec for node ({i}, {j})") from None

    def has(self, i: int, j: int) -> bool:
        return (i, j) in self.nodes

    def mean_matrix(self, spec: DagSpec) -> np.ndarray:
        """Per-node means, shape (r_max, c); NaN where no spec exists."""
        out = np.full((spec.r_max, spec.c), np.nan)
        for j, r in enumerate(spec.levels, start=1):
            for i in range(1, r + 1):
                if self.has(i, j):
                    out[i - 1, j - 1] = self.node(i, j).mean_value
        return out


# ---------------------------------------------------------------------------
# datasets

@dataclass(frozen=True)
class PathGroups:
    """Distinct observed paths with per-path record counts and response
    power sums: the only summary of a dataset the estimators and plug-in
    asymptotic variances need.

    ``paths`` is an (m, c) array of distinct paths in lexicographic order,
    ``counts`` the number of records on each, and ``sums[p, k]`` the sum of
    b**k over the records of path p, for k = 0..ORDER (so column 0 repeats
    the counts).
    """

    ORDER = 4

    paths: np.ndarray
    counts: np.ndarray
    sums: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class PathDataset:
    """n observed paths with their responses.

    ``paths`` is an (n, c) integer array of 1-based levels; ``responses`` is
    the length-n response vector.
    """

    spec: DagSpec
    paths: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        paths = np.array(self.paths, dtype=np.int64)
        responses = np.array(self.responses, dtype=float)
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
        paths.setflags(write=False)
        responses.setflags(write=False)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "responses", responses)

    @property
    def n(self) -> int:
        return self.paths.shape[0]

    def node_mask(self, j: int, i: int) -> np.ndarray:
        """Boolean mask of records whose path passes through node (i, j)."""
        self._check_node(j, i)
        return self.paths[:, j - 1] == i

    def count(self, j: int, i: int) -> int:
        return int(self.node_groups(j, i).counts.sum())

    def _check_node(self, j: int, i: int) -> None:
        if not 1 <= j <= self.spec.c or not 1 <= i <= self.spec.levels[j - 1]:
            raise ModelError(f"node ({i}, {j}) outside spec")

    @cached_property
    def groups(self) -> PathGroups:
        """The records grouped by distinct path; computed on first use and
        kept, since the dataset never changes."""
        # mixed-radix key of each path, lexicographic in the path; when the
        # next column would overflow it, the key is first renumbered densely
        key = np.zeros(self.n, dtype=np.int64)
        bound = 1
        for col, r in zip(self.paths.T, self.spec.levels):
            if bound * r > 2**62:
                key = np.unique(key, return_inverse=True)[1]
                bound = self.n
            key = key * r + (col - 1)
            bound *= r
        _, first, inverse, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        sums = np.empty((first.size, PathGroups.ORDER + 1))
        power = np.ones(self.n)
        for k in range(PathGroups.ORDER + 1):
            sums[:, k] = np.bincount(inverse, weights=power, minlength=first.size)
            power = power * self.responses
        return PathGroups(self.paths[first], counts, sums)

    def node_groups(self, j: int, i: int) -> PathGroups:
        """The distinct observed paths through node (i, j) with their counts
        and power sums."""
        self._check_node(j, i)
        g = self.groups
        sel = g.paths[:, j - 1] == i
        return PathGroups(g.paths[sel], g.counts[sel], g.sums[sel])


def estimate_kernel(data: PathDataset, smoothing: float = 0.0) -> TransitionKernel:
    """Empirical transition kernel of a dataset.

    Raw frequencies by default; ``smoothing`` adds that pseudocount to every
    transition cell. With zero smoothing, levels never visited get an
    all-NaN outgoing row flagged in ``unobserved`` and downstream operations
    conditioning on those rows refuse.
    """
    if data.n == 0:
        raise DataError("cannot estimate a kernel from an empty dataset")
    if smoothing < 0:
        raise ModelError(f"smoothing must be nonnegative, got {smoothing}")
    r = data.spec.levels
    alpha = float(smoothing)

    first = np.bincount(data.paths[:, 0] - 1, minlength=r[0]).astype(float)
    initial = (first + alpha) / (data.n + alpha * r[0])

    steps = []
    unobserved = set()
    for k in range(data.spec.c - 1):
        counts = np.zeros((r[k], r[k + 1]))
        np.add.at(counts, (data.paths[:, k] - 1, data.paths[:, k + 1] - 1), 1.0)
        counts += alpha
        totals = counts.sum(axis=1)
        step = np.full((r[k], r[k + 1]), np.nan)
        for a in range(r[k]):
            if totals[a] > 0:
                step[a] = counts[a] / totals[a]
            else:
                unobserved.add((k + 1, a + 1))
        steps.append(step)
    return TransitionKernel(initial, tuple(steps), frozenset(unobserved))
