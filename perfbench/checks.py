"""Output checks of the daglm benchmark.

The expected values come from closed forms, not from the code under test.
Under the uniform target kernel the columns are independent and uniform, so
for a node (i, j), with m_k = mean_i mu_ik and s_k = mean_i (sigma2_ik + mu_ik^2):

    E[b | i, j]   = mu_ij     + sum_{k != j} m_k
    Var[b | i, j] = sigma2_ij + sum_{k != j} (s_k - m_k^2)

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: estimate rows must lie within this many reported standard errors
SE_MULTIPLE = 5.0
#: exact targets must match the closed form to this (relative) tolerance
TARGET_TOL = 1e-9
#: measure-change identity residual bound
RESIDUAL_TOL = 1e-10
#: a node's coverage fails when the binomial tail of its count of covering
#: replicates, at the nominal level, is below this. With 8 nodes a run and
#: a true coverage of 0.94, under one run in 10000 fails by chance, while a
#: coverage of 0.70 fails at R=100 in over 99 runs out of 100.
COVERAGE_ALPHA = 1e-6


def load_json(path) -> dict:
    with Path(path).open(encoding="utf-8") as fh:
        return json.load(fh)


def uniform_target_moments(model: dict) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (means, variances), shape (levels, columns), of b given
    each node under the uniform target, for a model document whose columns
    share one level count and whose qualities are Gaussian."""
    levels, columns = model["columns"][0], len(model["columns"])
    mu = np.empty((levels, columns))
    var = np.empty((levels, columns))
    for key, q in model["quality"].items():
        i, j = (int(x) for x in key.split(","))
        mu[i - 1, j - 1] = q["mean"]
        var[i - 1, j - 1] = q["variance"]
    col_mean = mu.mean(axis=0)
    col_var = (var + mu**2).mean(axis=0) - col_mean**2
    means = mu + col_mean.sum() - col_mean[None, :]
    variances = var + col_var.sum() - col_var[None, :]
    return means, variances


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= TARGET_TOL * max(1.0, abs(expected))


def _schema_problems(doc: dict, schema_path: Path) -> list[str]:
    try:
        import jsonschema
    except ImportError:
        return [] if isinstance(doc.get("rows"), list) else ["report has no rows list"]
    try:
        jsonschema.validate(doc, load_json(schema_path))
    except jsonschema.ValidationError as exc:
        return [f"report fails its schema: {exc.message}"]
    return []


def check_estimate(doc: dict, model: dict, schema_path: Path) -> list[str]:
    """Schema, one row per node, every point estimate within SE_MULTIPLE
    reported standard errors of the closed form."""
    problems = _schema_problems(doc, schema_path)
    means, variances = uniform_target_moments(model)
    rows = doc.get("rows", [])
    if len(rows) != means.size:
        problems.append(f"estimate has {len(rows)} rows, expected {means.size}")
    for row in rows:
        i, j = row["level_index"], row["column"]
        for which, truth in (("mean", means), ("variance", variances)):
            value, se = row[which], row[f"{which}_se"]
            if value is None or se is None:
                problems.append(f"node ({i}, {j}) {which}: no estimate or se")
            elif abs(value - truth[i - 1, j - 1]) > SE_MULTIPLE * se:
                problems.append(
                    f"node ({i}, {j}) {which} {value:.6g} is more than "
                    f"{SE_MULTIPLE} se ({se:.3g}) from {truth[i - 1, j - 1]:.6g}"
                )
    return problems


def check_compare(doc: dict, estimate: dict, model: dict, schema_path: Path) -> list[str]:
    """Schema, all level pairs present, each difference equal to the
    difference of the estimate rows and its se consistent with theirs."""
    problems = _schema_problems(doc, schema_path)
    levels, columns = model["columns"][0], len(model["columns"])
    expected_rows = columns * levels * (levels - 1)  # pairs x {mean, variance}
    rows = doc.get("rows", [])
    if len(rows) != expected_rows:
        problems.append(f"compare has {len(rows)} rows, expected {expected_rows}")
    cells = {(r["level_index"], r["column"]): r for r in estimate.get("rows", [])}
    for row in rows:
        j, which = row["column"], row["which"]
        a, b = cells.get((row["level_a"], j)), cells.get((row["level_b"], j))
        if a is None or b is None or row["difference"] is None:
            problems.append(f"compare row {row} has no matching estimate rows")
            continue
        if row["difference"] != a[which] - b[which]:
            problems.append(
                f"column {j} {which} {row['level_a']}-{row['level_b']}: difference "
                f"{row['difference']!r} != {a[which] - b[which]!r}"
            )
        se2 = a[f"{which}_se"] ** 2 + b[f"{which}_se"] ** 2
        if row["se"] is None or not math.isclose(row["se"] ** 2, se2, rel_tol=1e-9):
            problems.append(
                f"column {j} {which} {row['level_a']}-{row['level_b']}: se "
                f"{row['se']!r} inconsistent with the estimate rows"
            )
    return problems


def check_csv(path: Path, n: int, columns: int) -> list[str]:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = sum(1 for _ in fh)
    problems = []
    if len(header) != columns + 1 or header[-1] != "response":
        problems.append(f"unexpected CSV header {header}")
    if rows != n:
        problems.append(f"CSV has {rows} data rows, expected {n}")
    return problems


def binomial_tail(covered: int, replicates: int, level: float) -> float:
    """The smaller tail probability of a Binomial(replicates, level) count
    at ``covered``: P(X <= covered) or P(X >= covered)."""
    def pmf(k: int) -> float:
        return math.exp(math.lgamma(replicates + 1) - math.lgamma(k + 1)
                        - math.lgamma(replicates - k + 1)
                        + k * math.log(level) + (replicates - k) * math.log1p(-level))

    lower = sum(pmf(k) for k in range(covered + 1))
    upper = sum(pmf(k) for k in range(covered, replicates + 1))
    return min(lower, upper)


def check_study(result: dict, model: dict, replicates: int) -> list[str]:
    """At every node, a count of covering replicates that the nominal
    level explains, and targets equal to the closed form."""
    means, variances = uniform_target_moments(model)
    truth = means if result["which"] == "mean" else variances
    label = f"{result['kind']}/{result['which']}"
    problems = []
    for i, j, rate, target in result["nodes"]:
        covered = round(rate * replicates)
        tail = binomial_tail(covered, replicates, result["level"])
        if not tail >= COVERAGE_ALPHA:
            problems.append(
                f"{label} node ({i}, {j}): {covered} of {replicates} replicates "
                f"covered; binomial tail {tail:.2g} at level {result['level']}"
            )
        if not _close(target, truth[i - 1, j - 1]):
            problems.append(
                f"{label} node ({i}, {j}): target {target!r} != closed form "
                f"{truth[i - 1, j - 1]!r}"
            )
    if len(result["nodes"]) != truth.size:
        problems.append(f"{label}: {len(result['nodes'])} nodes, expected {truth.size}")
    return problems


def check_targets(result: dict, model: dict) -> list[str]:
    means, variances = uniform_target_moments(model)
    problems = []
    for name, got, truth in (
        ("mean", result["means"], means),
        ("variance", result["variances"], variances),
    ):
        got = np.array(got, dtype=float)
        if got.shape != truth.shape:
            problems.append(f"{name} targets have shape {got.shape}, expected {truth.shape}")
            continue
        worst = float(np.max(np.abs(got - truth) / np.maximum(1.0, np.abs(truth))))
        if not worst <= TARGET_TOL:
            problems.append(f"{name} targets differ from the closed form by {worst:.3g}")
    return problems


def check_closed_form_avs(result: dict, model: dict) -> list[str]:
    levels, columns = model["columns"][0], len(model["columns"])
    values = result["values"]
    problems = []
    if len(values) != 4 * levels * columns:
        problems.append(f"{len(values)} asymptotic variances, expected {4 * levels * columns}")
    bad = [v for v in values if not (math.isfinite(v) and v >= 0.0)]
    if bad:
        problems.append(f"{len(bad)} asymptotic variances negative or not finite")
    return problems


def check_measure_change(result: dict, model: dict) -> list[str]:
    levels, columns = model["columns"][0], len(model["columns"])
    residuals = result["residuals"]
    problems = []
    if len(residuals) != 2 * levels * columns:
        problems.append(f"{len(residuals)} residuals, expected {2 * levels * columns}")
    worst = max(residuals, default=0.0)
    if not worst <= RESIDUAL_TOL:
        problems.append(f"measure-change residual {worst:.3g} above {RESIDUAL_TOL}")
    return problems
