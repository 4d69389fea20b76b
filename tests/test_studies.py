"""The Monte-Carlo studies draw their replicates in blocks and reduce every
replicate together over one replicate x path table. These tests hold them to
the per-replicate loop they replaced, row by row and refusal by refusal, and
the table to the stack of each replicate's own dataset."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import daglm
from daglm import simulation
from daglm.asymptotics import (
    REGIME_KNOWN,
    _avs,
    _limits,
    confidence_interval,
    plugin_asym_var,
)
from daglm.errors import DaglmError
from daglm.estimators import _column, cell_estimate
from daglm.model import PathGroups
from daglm.oracle import exact_estimator_targets

from conftest import gaussian_grid, random_model

KINDS = ("naive", "weighted", "plugin")
WHICH = ("mean", "variance")


# ---------------------------------------------------------------------------
# the per-replicate loops the studies ran before, kept as the reference

def stack(groups):
    """The table of several datasets' groups, one replicate each, over the
    union of their paths in lexicographic order."""
    paths = np.concatenate([g.paths for g in groups])
    union, inverse = np.unique(paths, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    rows = np.repeat(np.arange(len(groups)), [len(g.paths) for g in groups])
    counts = np.zeros((len(groups), len(union)), dtype=np.int64)
    counts[rows, inverse] = np.concatenate([g.counts for g in groups])
    sums = np.zeros((len(groups), len(union), PathGroups.ORDER + 1))
    sums[rows, inverse] = np.concatenate([g.sums for g in groups])
    return PathGroups(union, counts, sums)


def interval(data, i, j, kind, kernel, target, which, level):
    """The interval of the ``which`` estimate of one dataset at node (i, j),
    from the per-node functions, called in the order in which a study
    checks a cell: the asymptotic variance, then the estimate, then the
    interval. The naive estimator's variance is the known-source regime
    with the source kernel as the target, so that every ratio is 1."""
    if kind == "plugin":
        av = plugin_asym_var(data, target, i, j, which)
    else:
        av = plugin_asym_var(data, kernel if kind == "naive" else target, i, j, which,
                             REGIME_KNOWN, kernel)
    return confidence_interval(cell_estimate(data, i, j, kind, kernel, target), av, level)


def loop_coverage(config, kind="plugin", level=None, which="mean"):
    """coverage_study as one pass per replicate and node."""
    if level is None:
        level = config.level
    target = simulation._effective_target(config, kind)
    nodes = simulation._study_nodes(config)
    mean_targets, var_targets = exact_estimator_targets(
        config.kernel, target, config.quality
    )
    grid = mean_targets if which == "mean" else var_targets
    targets = {(i, j): float(grid[i - 1, j - 1]) for i, j in nodes}

    est = {node: np.empty(config.replicates) for node in nodes}
    low = {node: np.empty(config.replicates) for node in nodes}
    up = {node: np.empty(config.replicates) for node in nodes}
    cov = {node: np.empty(config.replicates, dtype=bool) for node in nodes}
    for rep in range(config.replicates):
        data = simulation.sample_dataset(config, rep)
        for i, j in nodes:
            ci = interval(data, i, j, kind, config.kernel, target, which, level)
            est[(i, j)][rep] = ci.point
            low[(i, j)][rep] = ci.lower
            up[(i, j)][rep] = ci.upper
            cov[(i, j)][rep] = ci.lower <= targets[(i, j)] <= ci.upper
    return est, low, up, cov


def loop_anscombe_raw(config, kind, which="mean"):
    """anscombe_study's sqrt(count) * (estimate - target) as one pass per
    replicate and node."""
    target = simulation._effective_target(config, kind)
    nodes = simulation._study_nodes(config)
    mean_t, var_t = exact_estimator_targets(config.kernel, target, config.quality)
    grid = mean_t if which == "mean" else var_t
    raw = {node: np.empty(config.replicates) for node in nodes}
    for rep in range(config.replicates):
        data = simulation.sample_dataset(config, rep)
        for i, j in nodes:
            cell = cell_estimate(data, i, j, kind, config.kernel, target)
            value = cell.mean if which == "mean" else cell.variance
            raw[(i, j)][rep] = np.sqrt(cell.count) * (value - grid[i - 1, j - 1])
    return raw


def loop_refusals(config, kind, which):
    """Every (replicate, node) of the loop that refuses, with its error."""
    target = simulation._effective_target(config, kind)
    out = []
    for rep in range(config.replicates):
        data = simulation.sample_dataset(config, rep)
        for i, j in simulation._study_nodes(config):
            try:
                interval(data, i, j, kind, config.kernel, target, which, config.level)
            except DaglmError as exc:
                out.append((rep, (i, j), exc))
    return out


def outcome(fn, *args, **kwargs):
    """What a call returns, or the class and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except DaglmError as exc:
        return type(exc), str(exc)


def assert_coverage_matches_loop(config, kind, which):
    expected = outcome(loop_coverage, config, kind, which=which)
    got = outcome(simulation.coverage_study, config, kind, which=which)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
        return
    est, low, up, cov = expected
    assert set(got.nodes) == set(est)
    for node in got.nodes:
        assert np.array_equal(got.estimates[node], est[node]), node
        assert np.array_equal(got.covered[node], cov[node]), node
        np.testing.assert_allclose(got.lowers[node], low[node], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.uppers[node], up[node], rtol=1e-12, atol=0)


def random_config(seed, sparsify, n, replicates):
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, max_c=3, max_r=3, sparsify=sparsify)
    return daglm.ExperimentConfig(
        spec=spec, kernel=kernel, quality=quality, n=n, seed=seed,
        replicates=replicates, target=target,
    )


# ---------------------------------------------------------------------------
# batched studies against the loop

@given(
    seed=st.integers(0, 100_000),
    sparsify=st.sampled_from([0.0, 0.3]),
    kind=st.sampled_from(KINDS),
    which=st.sampled_from(WHICH),
    n=st.sampled_from([150, 1500]),
)
@settings(max_examples=20, deadline=None)
def test_coverage_study_matches_loop_on_random_models(seed, sparsify, kind, which, n):
    # small n makes many (replicate, node) cells refuse; the study must
    # then raise what the loop raises first
    assert_coverage_matches_loop(random_config(seed, sparsify, n, 100), kind, which)


@given(
    seed=st.integers(0, 100_000),
    sparsify=st.sampled_from([0.0, 0.3]),
    kind=st.sampled_from(KINDS),
    which=st.sampled_from(WHICH),
)
@settings(max_examples=5, deadline=None)
def test_anscombe_study_matches_loop_on_random_models(seed, sparsify, kind, which):
    config = random_config(seed, sparsify, 1000, 500)
    expected = outcome(loop_anscombe_raw, config, kind, which)
    got = outcome(simulation.anscombe_study, config, kind, which)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert set(got) == set(expected)
    for node, diag in got.items():
        np.testing.assert_allclose(diag.raw, expected[node], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# refusals: one (replicate, node) fails, or several in an order that
# differs between replicate-major and node-major

DEMO_THREE_NODES = ((1, 1), (2, 1), (1, 2))  # path (1, 2) meets only (1, 1)


def doctor(monkeypatch, edits):
    """Replace the records of chosen replicates: ``edits`` maps a replicate
    to a function of (paths, responses) returning new ones. The edit is made
    in the block sampler, so studies and single datasets both see it."""
    sample = simulation._sample_block

    def doctored(config, start, stop):
        replicate, paths, responses = sample(config, start, stop)
        parts = []
        for k in range(stop - start):
            records = paths[replicate == k], responses[replicate == k]
            if start + k in edits:
                records = edits[start + k](*records)
            parts.append((np.full(len(records[0]), k), *records))
        return tuple(np.concatenate(column) for column in zip(*parts))

    monkeypatch.setattr(simulation, "_sample_block", doctored)


def drop_level_in_column_1(level):
    def edit(paths, responses):
        keep = paths[:, 0] != level
        return paths[keep], responses[keep]
    return edit


def keep_path(path, records):
    def edit(paths, responses):
        on = np.flatnonzero((paths == path).all(axis=1))
        keep = np.ones(len(paths), dtype=bool)
        keep[on[records:]] = False
        return paths[keep], responses[keep]
    return edit


def put_path(path):
    def edit(paths, responses):
        paths[0] = path
        return paths, responses
    return edit


def exclusive_kernels():
    """A source kernel that never draws path (1, 2) and a target that gives
    it no mass."""
    source = daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]), steps=(np.array([[1.0, 0.0], [0.25, 0.75]]),)
    )
    target = daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]), steps=(np.array([[1.0, 0.0], [0.5, 0.5]]),)
    )
    return source, target


FAULTS = {
    "no-data": ("naive", "mean", None, drop_level_in_column_1(2),
                "no data at node (2, 1)"),
    "support-incomplete": ("plugin", "mean", DEMO_THREE_NODES, keep_path((1, 2), 0),
                           "carry target conditional mass 0.5, not 1"),
    "seen-once": ("plugin", "variance", DEMO_THREE_NODES, keep_path((1, 2), 1),
                  "paths seen once: [(1, 2)]"),
    "target-excludes": ("plugin", "mean", DEMO_THREE_NODES, put_path((1, 2)),
                        "target measure excludes observed path (1, 2)"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_one_refusing_cell_raises_what_the_loop_raises(monkeypatch, demo_config, fault):
    kind, which, nodes, edit, message = FAULTS[fault]
    config = dataclasses.replace(demo_config, replicates=100, n=500, nodes=nodes)
    if fault == "target-excludes":
        source, target = exclusive_kernels()
        config = dataclasses.replace(config, kernel=source, target=target)
    doctor(monkeypatch, {37: edit})
    refusals = loop_refusals(config, kind, which)
    assert [rep for rep, _, _ in refusals] == [37]
    expected = refusals[0][2]
    assert message in str(expected)
    assert outcome(loop_coverage, config, kind, which=which) == (
        type(expected), str(expected)
    )
    assert outcome(simulation.coverage_study, config, kind, which=which) == (
        type(expected), str(expected)
    )


@pytest.mark.parametrize("first, second", [
    (drop_level_in_column_1(2), keep_path((1, 2), 1)),
    (keep_path((1, 2), 1), drop_level_in_column_1(2)),
])
def test_refusals_raise_in_replicate_order(monkeypatch, demo_config, first, second):
    # node (1, 1) refuses one replicate and node (2, 1) another: the loop
    # meets the lower replicate first, whichever node comes first
    config = dataclasses.replace(demo_config, replicates=100, n=500,
                                 nodes=DEMO_THREE_NODES)
    doctor(monkeypatch, {40: first, 60: second})
    refusals = loop_refusals(config, "plugin", "mean")
    assert sorted({rep for rep, _, _ in refusals}) == [40, 60]
    expected = outcome(loop_coverage, config, "plugin", which="mean")
    assert expected == (type(refusals[0][2]), str(refusals[0][2]))
    assert outcome(simulation.coverage_study, config, "plugin", which="mean") == expected


# ---------------------------------------------------------------------------
# a study's row depends only on its own replicate

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("which", WHICH)
def test_study_row_is_the_single_dataset_interval(demo_config, kind, which):
    config = dataclasses.replace(demo_config, replicates=100, n=300)
    result = simulation.coverage_study(config, kind, which=which)
    target = simulation._effective_target(config, kind)
    rows = {(node, field): np.empty(config.replicates)
            for node in result.nodes for field in ("point", "lower", "upper")}
    for rep in range(config.replicates):
        data = simulation.sample_dataset(config, rep)
        for i, j in result.nodes:
            ci = interval(data, i, j, kind, config.kernel, target, which, config.level)
            for field in ("point", "lower", "upper"):
                rows[((i, j), field)][rep] = getattr(ci, field)
    for node in result.nodes:
        assert np.array_equal(result.estimates[node], rows[(node, "point")])
        assert np.array_equal(result.lowers[node], rows[(node, "lower")])
        assert np.array_equal(result.uppers[node], rows[(node, "upper")])


def rare_level_config(replicates):
    """Ten levels in column 1, the first with probability 2e-4: at seed 8
    and n = 40 no replicate below 100 draws it, and replicate 139 does. The
    study looks at column 2, whose cells have up to ten paths, enough for a
    pairwise sum to group its terms differently when a path is added."""
    spec = daglm.DagSpec(levels=(10, 2))
    initial = np.full(10, (1.0 - 2e-4) / 9)
    initial[0] = 2e-4
    kernel = daglm.TransitionKernel(initial=initial, steps=(np.full((10, 2), 0.5),))
    quality = gaussian_grid(
        spec, means=np.arange(20.0).reshape(10, 2) * 0.3 - 2.0, variances=np.ones((10, 2))
    )
    return daglm.ExperimentConfig(
        spec=spec, kernel=kernel, quality=quality, n=40, seed=8,
        replicates=replicates, nodes=((1, 2), (2, 2)),
    )


@pytest.mark.parametrize("kind", ("naive", "weighted"))
@pytest.mark.parametrize("which", WHICH)
def test_study_rows_do_not_depend_on_the_other_replicates(kind, which):
    short, long = rare_level_config(100), rare_level_config(150)
    short_levels = simulation._replicate_table(short).paths[:, 0]
    long_levels = simulation._replicate_table(long).paths[:, 0]
    assert 1 in long_levels and 1 not in short_levels
    a = simulation.coverage_study(short, kind, which=which)
    b = simulation.coverage_study(long, kind, which=which)
    for node in a.nodes:
        for field in ("estimates", "lowers", "uppers", "covered"):
            assert np.array_equal(getattr(a, field)[node],
                                  getattr(b, field)[node][:100]), (node, field)


# ---------------------------------------------------------------------------
# a column's reduction: each cell is the reduction of its own paths

def through(table, j, i):
    """The table of the paths through node (i, j) alone."""
    at = table.paths[:, j - 1] == i
    return PathGroups(table.paths[at], table.counts[:, at], table.sums[:, at])


def cell_outcomes(column, which, l):
    """Everything the reduction of a column gives at level l, replicate by
    replicate: the values as bytes, and the type and text of each refusal."""
    mean, variance, clipped, estimate_checks = column.estimates
    av = _avs(column, which)
    point = mean if which == "mean" else variance
    lower, upper = _limits(point, av.value, column.size, 1.96)
    checks = column.checks + av.checks + tuple(estimate_checks) + (av.finite,)
    out = []
    for r in range(len(column.n)):
        row = av.row(r, l)
        values = np.array([column.n[r, l], mean[r, l], variance[r, l], av.value[r, l],
                           lower[r, l], upper[r, l]])
        out.append((
            values.tobytes(), bool(clipped[r, l]), row.blocks.tobytes(),
            row.contraction.tobytes(), row.clipped,
            [(c.error, c.message(r, l)) for c in checks if c.mask[r, l]],
        ))
    return out


@given(
    seed=st.integers(0, 100_000),
    sparsify=st.sampled_from([0.0, 0.3]),
    n=st.sampled_from([4, 30, 300]),
    replicates=st.integers(2, 6),
)
@settings(max_examples=25, deadline=None)
def test_a_cell_is_the_table_of_its_own_paths(seed, sparsify, n, replicates):
    # each cell sum adds its paths in path order, so the paths of other
    # nodes, and paths that a replicate never saw, change no bit of a cell
    config = random_config(seed, sparsify, n, replicates)
    table = simulation._replicate_table(config)
    for kind in KINDS:
        target = simulation._effective_target(config, kind)
        for j, width in enumerate(config.spec.levels, start=1):
            whole = _column(table, width, j, kind, config.kernel, target)
            for i in range(1, width + 1):
                alone = _column(through(table, j, i), width, j, kind, config.kernel, target)
                for which in WHICH:
                    assert cell_outcomes(whole, which, i - 1) == \
                        cell_outcomes(alone, which, i - 1), (kind, which, i, j)


# ---------------------------------------------------------------------------
# memory: replicates are grouped as they are drawn

def test_coverage_study_holds_grouped_replicates_only(demo_config):
    # the records of 100 replicates of 20000 paths (two int64 levels and a
    # float64 response each) take 48 MB; their grouped table takes kilobytes
    config = dataclasses.replace(demo_config, replicates=100, n=20_000)
    tracemalloc.start()
    try:
        simulation.coverage_study(config, "plugin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_replicate_table_holds_no_study_wide_records(demo_config):
    # the records of 5000 replicates of 50 paths (two int64 levels, two
    # float64 variates and a float64 response each) take 10 MB; a block of
    # them, and the grouped table, take a few
    config = dataclasses.replace(demo_config, replicates=5000, n=50)
    tracemalloc.start()
    try:
        simulation._replicate_table(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the block sampler: each replicate draws what its own dataset draws

def mixed_quality_config(seed, sparsify, n, replicates):
    """A random model whose nodes draw gaussian, bernoulli or point-mass
    values."""
    rng = np.random.default_rng(seed)
    spec, kernel, _, _ = random_model(rng, max_c=3, max_r=3, sparsify=sparsify)
    kinds = (
        lambda: daglm.NodeQuality.gaussian(rng.normal(), rng.uniform(0.1, 2.0)),
        lambda: daglm.NodeQuality.bernoulli(rng.uniform()),
        lambda: daglm.NodeQuality.point_mass(rng.normal()),
    )
    nodes = {(i, j): kinds[rng.integers(3)]()
             for j, r in enumerate(spec.levels, start=1) for i in range(1, r + 1)}
    return daglm.ExperimentConfig(
        spec=spec, kernel=kernel, quality=daglm.QualityModel(nodes), n=n, seed=seed,
        replicates=replicates,
    )


@given(
    seed=st.integers(0, 100_000),
    sparsify=st.sampled_from([0.0, 0.3]),
    # records per replicate: one, a few, a third of the block budget, and
    # more than the budget (one replicate per block)
    n=st.sampled_from([1, 7, simulation._BLOCK_RECORDS // 3,
                       simulation._BLOCK_RECORDS + 5]),
    replicates=st.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_replicate_table_is_the_stack_of_the_datasets(seed, sparsify, n, replicates):
    config = mixed_quality_config(seed, sparsify, n, replicates)
    got = simulation._replicate_table(config)
    expected = stack(
        [simulation.sample_dataset(config, rep).groups for rep in range(replicates)]
    )
    for field in ("paths", "counts", "sums"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def test_unreachable_node_needs_no_quality_spec(demo_spec):
    # node (2, 1) is never drawn, so it needs no quality spec
    kernel = daglm.TransitionKernel(
        initial=np.array([1.0, 0.0]), steps=(np.array([[0.5, 0.5], [0.5, 0.5]]),)
    )
    quality = daglm.QualityModel({
        (1, 1): daglm.NodeQuality.gaussian(0.0, 1.0),
        (1, 2): daglm.NodeQuality.bernoulli(0.4),
        (2, 2): daglm.NodeQuality.point_mass(2.0),
    })
    config = daglm.ExperimentConfig(
        spec=demo_spec, kernel=kernel, quality=quality, n=300, seed=5,
        replicates=100, target=kernel,
    )
    data = simulation.sample_dataset(config, 3)
    assert data.count(1, 2) == 0 and data.count(1, 1) == 300
    result = simulation.coverage_study(config, "naive")
    assert result.nodes == ((1, 1), (1, 2), (2, 2))
    with pytest.raises(daglm.ModelError, match=r"no quality spec for node \(2, 1\)"):
        quality.node(2, 1)
