"""End-to-end acceptance checks for the estimator library.

Each test prints one PASS/FAIL line on the terminal (bypassing capture) so a
full run gives a ten-line scoreboard. Expected values fall in three groups:
hand-derived exact constants, reference values for the bundled datasets, and
distributional bands around closed-form limits. Every stochastic check is
keyed by explicit seeds, so reruns are bit-for-bit identical.
"""

import math
import time

import numpy as np
import pytest
from conftest import random_model

import daglm
from daglm.asymptotics import (
    REGIME_UNKNOWN,
    asym_var_mean_known,
    asym_var_mean_unknown,
    asym_var_variance_known,
    asym_var_variance_unknown,
    confidence_interval,
    plugin_asym_var,
)
from daglm.estimators import cell_estimate
from daglm.model import SUPPORT_ZERO, estimate_kernel, node_marginal, uniform_kernel
from daglm.oracle import exact_estimator_targets, verify_measure_change
from daglm.simulation import ExperimentConfig, sample_dataset
from daglm.tabular import apply_rules, load_table, quantile_discretize

NODES = ((1, 1), (2, 1), (1, 2), (2, 2))

# exact estimator targets of the demo model with a uniform target kernel
TRUE_MEAN = {(1, 1): 1.5, (2, 1): -0.5, (1, 2): 0.0, (2, 2): 1.0}
TRUE_MEAN_DIFF = {1: 2.0, 2: -1.0}
TRUE_VARIANCE_DIFF = {1: 1.0, 2: 0.0}
# exact limiting variances of the plugin (empirical-ratio) cell mean
PLUGIN_MEAN_AV = {(1, 1): 4.0, (2, 1): 8 / 3, (1, 2): 3.0, (2, 2): 11 / 3}

# single-draw reference estimates at n=1000 that criterion 4's envelope
# must cover (they are one random draw each, not exact values)
REFERENCE_SINGLE_RUN = {
    ("weighted", "mean", 1): 2.15,
    ("weighted", "mean", 2): -1.21,
    ("weighted", "variance", 1): 1.08,
    ("weighted", "variance", 2): 0.13,
    ("plugin", "mean", 1): 2.01,
    ("plugin", "mean", 2): -1.04,
    ("plugin", "variance", 1): 1.05,
    ("plugin", "variance", 2): 0.21,
}

# reference quantile breaks and estimated kernel for the bundled school data
REFERENCE_ENGLISH_BREAKS = (0.00, 1.16, 5.01, 13.14, 30.72, 85.54)
REFERENCE_STR_BREAKS = (14.00, 18.16, 19.27, 20.08, 21.08, 25.80)
REFERENCE_SCHOOL_KERNEL = (
    (0.32, 0.24, 0.19, 0.18, 0.07),
    (0.25, 0.23, 0.24, 0.18, 0.11),
    (0.20, 0.12, 0.20, 0.19, 0.29),
    (0.11, 0.27, 0.23, 0.17, 0.23),
    (0.12, 0.14, 0.14, 0.29, 0.31),
)


def announce(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def reachable_nodes(kernel):
    spec = kernel.spec()
    return [
        (i, j)
        for j, r in enumerate(spec.levels, start=1)
        for i in range(1, r + 1)
        if node_marginal(kernel, j, i) > SUPPORT_ZERO
    ]


@pytest.fixture(scope="module")
def study(demo_spec, demo_kernel, demo_quality, demo_uniform):
    """2000 replicates of n=2000: plugin mean estimates with CIs at every
    node, plus the exact-ratio weighted mean at node (1, 2). Shared by the
    variance-match, coverage, and normality criteria."""
    reps = 2000
    config = ExperimentConfig(
        spec=demo_spec, kernel=demo_kernel, quality=demo_quality,
        n=2000, seed=17, replicates=reps,
    )
    u = demo_uniform
    out = {
        "config": config,
        "count": {nd: np.empty(reps) for nd in NODES},
        "plugin_mean": {nd: np.empty(reps) for nd in NODES},
        "lower": {nd: np.empty(reps) for nd in NODES},
        "upper": {nd: np.empty(reps) for nd in NODES},
        "weighted_mean_12": np.empty(reps),
    }
    start = time.perf_counter()
    for rep in range(reps):
        data = sample_dataset(config, rep)
        for i, j in NODES:
            cell = cell_estimate(data, i, j, "plugin", target=u,
                                 target_id="uniform")
            av = plugin_asym_var(data, u, i, j, "mean", REGIME_UNKNOWN)
            ci = confidence_interval(cell, av, 0.95)
            out["count"][(i, j)][rep] = cell.count
            out["plugin_mean"][(i, j)][rep] = cell.mean
            out["lower"][(i, j)][rep] = ci.lower
            out["upper"][(i, j)][rep] = ci.upper
        out["weighted_mean_12"][rep] = cell_estimate(
            data, 1, 2, "weighted", demo_kernel, u, "uniform"
        ).mean
    out["elapsed"] = time.perf_counter() - start
    return out


def test_01_measure_change_identity(capsys, demo_kernel, demo_uniform,
                                    demo_quality):
    start = time.perf_counter()
    worst = 0.0
    for i, j in NODES:
        for f in ("b", "b2"):
            worst = max(
                worst,
                verify_measure_change(demo_kernel, demo_uniform, demo_quality,
                                      j, i, f),
            )
    rng = np.random.default_rng(20260823)
    for _ in range(20):
        spec, kernel, target, quality = random_model(
            rng, max_c=4, max_r=4, sparsify=0.3
        )
        for i, j in reachable_nodes(kernel):
            for f in ("b", "b2"):
                worst = max(
                    worst,
                    verify_measure_change(kernel, target, quality, j, i, f),
                )
    elapsed = time.perf_counter() - start
    announce(
        capsys, 1, worst <= 1e-10 and elapsed < 5.0,
        f"reweighting identity residual {worst:.2e} <= 1e-10 over the demo "
        f"model and 20 random equivalent pairs ({elapsed:.1f}s)",
    )


def test_02_weighted_equals_naive_when_target_is_source(capsys):
    rng = np.random.default_rng(1309)
    checked = 0
    exact = True
    for k in range(100):
        spec, kernel, _, quality = random_model(rng, max_c=3, max_r=3)
        config = ExperimentConfig(
            spec=spec, kernel=kernel, quality=quality,
            n=int(rng.integers(40, 400)), seed=int(rng.integers(2**32)),
        )
        data = sample_dataset(config, 0)
        for i, j in reachable_nodes(kernel):
            if data.count(j, i) == 0:
                continue
            naive = cell_estimate(data, i, j, "naive")
            weighted = cell_estimate(data, i, j, "weighted", kernel, kernel)
            exact = exact and (
                weighted.mean == naive.mean
                and weighted.variance == naive.variance
            )
            checked += 1
    announce(
        capsys, 2, exact and checked > 300,
        f"weighted == naive bit-for-bit at {checked} cells across 100 random "
        "datasets when the target kernel is the source kernel",
    )


def test_03_unbiased_differences_at_large_n(capsys, demo_spec, demo_kernel,
                                            demo_quality, demo_uniform):
    start = time.perf_counter()
    config = ExperimentConfig(
        spec=demo_spec, kernel=demo_kernel, quality=demo_quality,
        n=100_000, seed=17,
    )
    data = sample_dataset(config, 0)
    w = {
        nd: cell_estimate(data, nd[0], nd[1], "weighted", demo_kernel,
                          demo_uniform, "uniform")
        for nd in NODES
    }
    naive = {nd: cell_estimate(data, nd[0], nd[1], "naive") for nd in NODES}
    mean_diffs = {j: w[(1, j)].mean - w[(2, j)].mean for j in (1, 2)}
    var_diffs = {j: w[(1, j)].variance - w[(2, j)].variance for j in (1, 2)}
    naive_col2 = naive[(1, 2)].mean - naive[(2, 2)].mean
    elapsed = time.perf_counter() - start

    ok = (
        abs(mean_diffs[1] - 2.0) <= 0.05
        and abs(mean_diffs[2] - (-1.0)) <= 0.05
        and abs(naive_col2 - 0.0) <= 0.05
        and abs(var_diffs[1] - 1.0) <= 0.15
        and abs(var_diffs[2] - 0.0) <= 0.15
        and elapsed < 10.0
    )
    announce(
        capsys, 3, ok,
        f"n=1e5 weighted mean diffs ({mean_diffs[1]:+.3f}, {mean_diffs[2]:+.3f})"
        f" near (+2, -1); naive col-2 diff {naive_col2:+.3f} near 0 (the bias"
        f" hides the effect); weighted variance diffs ({var_diffs[1]:+.3f},"
        f" {var_diffs[2]:+.3f}) near (+1, 0); {elapsed:.1f}s",
    )


def test_04_difference_envelope_over_200_seeds(capsys, demo_spec, demo_kernel,
                                               demo_quality, demo_uniform):
    config = ExperimentConfig(
        spec=demo_spec, kernel=demo_kernel, quality=demo_quality,
        n=1000, seed=17, replicates=200,
    )
    u = demo_uniform
    av_fns = {
        ("weighted", "mean"): asym_var_mean_known,
        ("weighted", "variance"): asym_var_variance_known,
        ("plugin", "mean"): asym_var_mean_unknown,
        ("plugin", "variance"): asym_var_variance_unknown,
    }
    avs = {
        key + (i, j): fn(demo_kernel, u, demo_quality, i, j).value
        for key, fn in av_fns.items()
        for (i, j) in NODES
    }
    true = {"mean": TRUE_MEAN_DIFF, "variance": TRUE_VARIANCE_DIFF}

    hits = 0
    total = 0
    for rep in range(200):
        data = sample_dataset(config, rep)
        cells = {}
        for i, j in NODES:
            cells[("weighted", i, j)] = cell_estimate(
                data, i, j, "weighted", demo_kernel, u, "uniform"
            )
            cells[("plugin", i, j)] = cell_estimate(
                data, i, j, "plugin", target=u, target_id="uniform"
            )
        for kind in ("weighted", "plugin"):
            for which in ("mean", "variance"):
                for j in (1, 2):
                    a, b = cells[(kind, 1, j)], cells[(kind, 2, j)]
                    va = a.mean if which == "mean" else a.variance
                    vb = b.mean if which == "mean" else b.variance
                    se = math.sqrt(
                        avs[(kind, which, 1, j)] / a.count
                        + avs[(kind, which, 2, j)] / b.count
                    )
                    hits += abs((va - vb) - true[which][j]) <= 3.0 * se
                    total += 1
    fraction = hits / total

    # the same 3-SE envelope (at the expected cell count n/2) must cover the
    # published single-run reference estimates
    covered = all(
        abs(value - true[which][j])
        <= 3.0 * math.sqrt(
            avs[(kind, which, 1, j)] / 500 + avs[(kind, which, 2, j)] / 500
        )
        for (kind, which, j), value in REFERENCE_SINGLE_RUN.items()
    )
    announce(
        capsys, 4, fraction >= 0.95 and covered,
        f"{fraction:.1%} of {total} difference estimates within 3 closed-form "
        "SEs of the exact values; all 8 single-run reference entries inside "
        "the envelope",
    )


def test_05_limit_variance_match(capsys, study):
    stat_plugin = np.sqrt(study["count"][(1, 2)]) * (
        study["plugin_mean"][(1, 2)] - TRUE_MEAN[(1, 2)]
    )
    stat_weighted = np.sqrt(study["count"][(1, 2)]) * (
        study["weighted_mean_12"] - TRUE_MEAN[(1, 2)]
    )
    var_plugin = float(np.var(stat_plugin))
    var_weighted = float(np.var(stat_weighted))
    ok = (
        abs(var_plugin - 3.0) <= 0.3
        and abs(var_weighted - 13 / 3) <= 13 / 30
        and study["elapsed"] < 60.0
    )
    announce(
        capsys, 5, ok,
        f"scaled-error variance {var_plugin:.3f} vs closed form 3 (plugin) and "
        f"{var_weighted:.3f} vs 13/3 = {13 / 3:.3f} (known source), both "
        f"within 10%; study took {study['elapsed']:.1f}s",
    )


def test_06_ci_coverage(capsys, study):
    rates = {}
    for nd in NODES:
        covered = (study["lower"][nd] <= TRUE_MEAN[nd]) & (
            TRUE_MEAN[nd] <= study["upper"][nd]
        )
        rates[nd] = float(np.mean(covered))
    ok = all(0.93 <= rate <= 0.97 for rate in rates.values())
    pretty = ", ".join(f"({i},{j})={rates[(i, j)]:.3f}" for i, j in NODES)
    announce(
        capsys, 6, ok,
        f"95% plugin-mean CI coverage over 2000 replicates in [0.93, 0.97] "
        f"at every node: {pretty}",
    )


def test_07_toothgrowth_reference(capsys):
    spec, data = load_table(daglm.data_path("toothgrowth.csv")).to_path_dataset()
    u = uniform_kernel(spec)
    mean = {
        (i, j): cell_estimate(data, i, j, "plugin", target=u).mean
        for j, r in enumerate(spec.levels, start=1)
        for i in range(1, r + 1)
    }
    supp_diff = mean[(1, 1)] - mean[(2, 1)]  # OJ - VC
    dose_mid = mean[(2, 2)] - mean[(1, 2)]  # dose 1.0 - dose 0.5
    dose_high = mean[(3, 2)] - mean[(1, 2)]  # dose 2.0 - dose 0.5
    ok = (
        abs(supp_diff - 3.7) <= 0.01
        and abs(dose_mid - 9.13) <= 0.01
        and abs(dose_high - 15.49) <= 0.01
    )
    announce(
        capsys, 7, ok,
        f"plugin diffs on bundled growth data: OJ-VC {supp_diff:.3f} (ref 3.7),"
        f" dose {dose_mid:.3f} (ref 9.13) and {dose_high:.3f} (ref 15.49)",
    )


def test_08_school_data_discretization(capsys):
    table = load_table(daglm.data_path("caschools.csv"))
    rules = {
        "english": quantile_discretize(
            [float(x) for x in table.column("english")], 5, column="english"
        ),
        "STR": quantile_discretize(
            [float(x) for x in table.column("STR")], 5, column="STR"
        ),
    }
    breaks_ok = all(
        abs(got - want) <= 0.01
        for got, want in zip(rules["english"].breaks, REFERENCE_ENGLISH_BREAKS)
    ) and all(
        abs(got - want) <= 0.01
        for got, want in zip(rules["STR"].breaks, REFERENCE_STR_BREAKS)
    )

    binned = apply_rules(table, rules)
    spec, data = binned.to_path_dataset()
    kern = estimate_kernel(data)
    row_sums = kern.steps[0].sum(axis=1)
    stochastic = bool(np.all(np.abs(row_sums - 1.0) <= 1e-12)) and abs(
        float(kern.initial.sum()) - 1.0
    ) <= 1e-12
    kernel_gap = float(
        np.abs(kern.steps[0] - np.asarray(REFERENCE_SCHOOL_KERNEL)).max()
    )
    announce(
        capsys, 8, breaks_ok and stochastic and kernel_gap <= 0.01,
        f"quintile breaks match the reference lists within 0.01; estimated "
        f"5x5 kernel is row-stochastic and within {kernel_gap:.4f} of the "
        "reference entries",
    )


def test_09_normality_of_standardized_errors(capsys, study):
    from scipy import stats as sstats

    distances = {}
    for nd in NODES:
        stat = (
            np.sqrt(study["count"][nd])
            * (study["plugin_mean"][nd] - TRUE_MEAN[nd])
            / math.sqrt(PLUGIN_MEAN_AV[nd])
        )
        distances[nd] = float(sstats.kstest(stat, "norm").statistic)
    worst = max(distances.values())
    pretty = ", ".join(f"({i},{j})={distances[(i, j)]:.3f}" for i, j in NODES)
    announce(
        capsys, 9, worst < 0.05,
        f"KS distance of the standardized plugin-mean statistic to standard "
        f"normal below 0.05 at every node: {pretty}",
    )


def test_10_reproducibility(capsys, study, demo_kernel, demo_uniform):
    config = study["config"]
    ok = True
    # replicates recomputed in isolation match the sequential study exactly,
    # so scheduling replicates across any number of workers cannot change
    # the results
    for rep in (3, 1500):
        data = sample_dataset(config, rep)
        cell = cell_estimate(data, 1, 2, "plugin", target=demo_uniform,
                             target_id="uniform")
        wcell = cell_estimate(data, 1, 2, "weighted", demo_kernel,
                              demo_uniform, "uniform")
        ok = ok and cell.mean == study["plugin_mean"][(1, 2)][rep]
        ok = ok and wcell.mean == study["weighted_mean_12"][rep]
        again = sample_dataset(config, rep)
        ok = ok and np.array_equal(data.paths, again.paths)
        ok = ok and np.array_equal(data.responses, again.responses)
    # the randomized-model stream is reproducible from its seed
    first = random_model(np.random.default_rng(20260823), sparsify=0.3)
    second = random_model(np.random.default_rng(20260823), sparsify=0.3)
    ok = ok and np.array_equal(first[1].initial, second[1].initial)
    ok = ok and all(
        np.array_equal(a, b) for a, b in zip(first[1].steps, second[1].steps)
    )
    announce(
        capsys, 10, ok,
        "replicates recomputed in isolation are bit-for-bit identical to the "
        "sequential study, and seeded model generation replays exactly",
    )
