"""Command-line front end.

Subcommands: simulate, estimate, compare, validate, discretize, kernel.
Exit codes: 0 success, 1 standard output closed before the report was
written, 2 usage error, 3 data/model validation error, 4 statistical
precondition error. Offending entities are named on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (
    _avs,
    _quantile,
    asym_var_mean_known,
    asym_var_mean_unknown,
    asym_var_variance_known,
    asym_var_variance_unknown,
)
from .errors import DataError, ModelError, StatisticalError
from .estimators import _column, _first
from .model import (
    TransitionKernel,
    _joint_counts,
    _nodes,
    _reachable_nodes,
    estimate_kernel,
    kernels_equivalent,
    validate_dag,
)
from .modelfile import load_model, model_to_dict, save_model
from .oracle import exact_estimator_targets, verify_measure_change
from .report import (
    compare_document,
    discretize_document,
    estimate_document,
    validate_document,
    write_document,
)
from .simulation import (
    COVERAGE_ALPHA,
    ExperimentConfig,
    _KEY_LIMIT,
    _target_kernel,
    binomial_tail,
    coverage_study,
    load_config,
    sample_dataset,
)
from .tabular import (
    apply_rules,
    load_table,
    markov_discrepancy,
    quantile_discretize,
    write_dataset_csv,
)


class UsageError(Exception):
    """Command-line usage problem not expressible through argparse."""


def _level(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid level {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"level {value} outside (0, 1)")
    return value


def _uint64(text: str) -> int:
    """A seed or replicate index: the generator's key takes 64-bit words."""
    value = int(text)
    if not 0 <= value < _KEY_LIMIT:
        raise argparse.ArgumentTypeError(f"{value} outside [0, 2^64)")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _csv_list(text: str) -> list[str]:
    items = [x.strip() for x in text.split(",") if x.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daglm",
        description=(
            "Per-node mean/variance estimation for additive path models "
            "with Markov-dependent categorical factors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_flags(p):
        p.add_argument("--data", required=True, help="input CSV file")
        p.add_argument(
            "--factors", type=_csv_list, default=None,
            help="comma-separated factor column names (default: all but response)",
        )
        p.add_argument(
            "--response", default=None,
            help="response column name (default: last column)",
        )

    def add_report_flags(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument(
            "--format", choices=("csv", "json"), default="json",
            help="report format (default json)",
        )

    p = sub.add_parser("simulate", help="sample a dataset from a config file")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=_uint64, default=None, help="override the config seed")
    p.add_argument("--replicate", type=_uint64, default=0, help="replicate index")
    p.add_argument("--out", default=None, help="dataset CSV (default stdout)")

    for name in ("estimate", "compare"):
        p = sub.add_parser(
            name,
            help=(
                "per-node estimates with confidence intervals"
                if name == "estimate"
                else "within-column pairwise differences with confidence intervals"
            ),
        )
        add_table_flags(p)
        p.add_argument("--model", default=None, help="model file (source kernel)")
        p.add_argument(
            "--target-kernel", default="uniform",
            help="'uniform' or a model file with the target kernel",
        )
        p.add_argument(
            "--estimator", choices=("naive", "weighted", "plugin"), default="plugin",
        )
        p.add_argument("--level", type=_level, default=0.95)
        p.add_argument(
            "--bessel", action="store_true",
            help="report n/(n-1)-corrected cell variances",
        )
        p.add_argument(
            "--check-markov", action="store_true",
            help="report the stepwise-dependence discrepancy on stderr",
        )
        if name == "compare":
            p.add_argument(
                "--column", default=None,
                help="restrict to one factor column (name or 1-based index)",
            )
            p.add_argument(
                "--pair", default=None,
                help="restrict to one level pair, as 'i,i2' (1-based; i=i2 allowed)",
            )
        add_report_flags(p)

    p = sub.add_parser("validate", help="oracle and coverage checks for a model file")
    p.add_argument("--model", required=True, help="model file with a quality section")
    p.add_argument(
        "--target-kernel", default="uniform",
        help="'uniform' or a model file with the target kernel",
    )
    p.add_argument("--n", type=_positive, default=400, help="samples per replicate")
    p.add_argument("--replicates", type=_positive, default=200)
    p.add_argument("--seed", type=_uint64, default=0)
    p.add_argument("--level", type=_level, default=0.95)
    add_report_flags(p)

    p = sub.add_parser("discretize", help="quantile-bin numeric columns")
    add_table_flags(p)
    p.add_argument(
        "--columns", required=True, type=_csv_list,
        help="comma-separated numeric columns to bin",
    )
    p.add_argument("--groups", type=int, default=5)
    p.add_argument("--out", required=True, help="discretized CSV output path")
    p.add_argument(
        "--rules-out", default=None, help="write the rules report here (default stdout)"
    )
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("kernel", help="estimate the empirical transition kernel")
    add_table_flags(p)
    p.add_argument("--smoothing", type=float, default=0.0)
    p.add_argument(
        "--check-markov", action="store_true",
        help="report the stepwise-dependence discrepancy on stderr",
    )
    p.add_argument("--out", default=None, help="model JSON output (default stdout)")
    p.add_argument(
        "--format", choices=("csv", "json"), default="json",
        help="kernel output is a model file; only json is valid",
    )
    return parser


# ---------------------------------------------------------------------------
# shared plumbing

def _write(doc, out: str | None, fmt: str) -> None:
    """Write a report to the file ``out``, or to stdout when it is None."""
    if out is None:
        write_document(doc, fmt, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_document(doc, fmt, fh)


def _load_inputs(args):
    table = load_table(args.data, args.factors, args.response)
    model = load_model(args.model) if getattr(args, "model", None) else None
    label_order = None
    if model is not None:
        if model.spec.c != len(table.factor_names):
            raise DataError(
                f"model has {model.spec.c} columns, data has "
                f"{len(table.factor_names)} factor columns"
            )
        if model.spec.labels is not None:
            label_order = dict(zip(table.factor_names, model.spec.labels))
    spec, data = table.to_path_dataset(label_order)
    if model is not None and spec.levels != model.spec.levels:
        raise DataError(
            f"data level counts {spec.levels} do not match model {model.spec.levels}"
        )
    return table, spec, data, model


def _resolve_target(name: str, spec) -> tuple[TransitionKernel, str]:
    """The target kernel for data of ``spec`` and its id in reports:
    "uniform", or the kernel of the model file ``name``."""
    target = name
    if name != "uniform":
        model = load_model(name)
        if model.spec.levels != spec.levels:
            raise DataError(
                f"target kernel levels {model.spec.levels} do not match data "
                f"{spec.levels}"
            )
        target = model.kernel
    return _target_kernel(target, spec), Path(name).name


def _report_markov(args, data) -> None:
    if not getattr(args, "check_markov", False):
        return
    gaps = markov_discrepancy(data)
    if not gaps:
        print("markov check: fewer than 3 factor columns, nothing to check",
              file=sys.stderr)
        return
    for k, gap in enumerate(gaps, start=1):
        print(
            f"markov check: step {k + 1} max conditional-probability "
            f"discrepancy {gap:.4f}", file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    data = sample_dataset(config, args.replicate)
    if args.out is None:
        write_dataset_csv(sys.stdout, config.spec, data)
    else:
        write_dataset_csv(args.out, config.spec, data)
    return 0


_CELL_FIELDS = ("mean", "mean_se", "mean_lower", "mean_upper",
                "variance", "variance_se", "variance_lower", "variance_upper")


def _estimate_rows(args, spec, data, model, nodes):
    """One report row per node (i, j) in ``nodes``: the cell estimates with
    their standard errors and confidence limits, Bessel-scaled on request."""
    kind = args.estimator
    source = model.kernel if model is not None else None
    if kind == "weighted" and source is None:
        raise ModelError("weighted estimator requires --model with the source kernel")
    if kind == "naive":
        target, target_id = None, ""
    else:
        target, target_id = _resolve_target(args.target_kernel, spec)
        if kind == "weighted" and not kernels_equivalent(source, target):
            raise ModelError("measures not equivalent: source vs target kernel")
    z = _quantile(args.level)
    columns = {}
    for j in dict.fromkeys(j for _, j in nodes):
        column = _column(data._table, spec.levels[j - 1], j, kind, source, target)
        columns[j] = column, column.estimates, [_avs(column, w) for w in ("mean", "variance")]
    rows = []
    for i, j in nodes:
        (column, (mean, variance, clipped, checks), avs), l = columns[j], i - 1
        count = int(column.n[0, l])
        base = {"column": j, "level_index": i, "label": spec.label(j, i), "count": count}
        refusal = _first(column.checks + checks, 0, l)
        if refusal is not None:
            if refusal.flag is None:
                raise refusal.exception(0, l)
            if refusal.flag != "no-data":
                print(f"note: {refusal.exception(0, l)}", file=sys.stderr)
            rows.append(base | dict.fromkeys(_CELL_FIELDS) | {"flags": [refusal.flag]})
            continue
        flags = ["variance-clipped"] if clipped[0, l] else []
        scale = count / (count - 1) if args.bessel and count >= 2 else 1.0
        point = {"mean": float(mean[0, l]), "variance": float(variance[0, l])}
        row = base | {"mean": point["mean"], "variance": point["variance"] * scale,
                      "flags": flags}
        for av, factor in zip(avs, (1.0, scale)):
            which = av.which
            refusal = _first(av.checks + (av.finite,), 0, l)
            if refusal is not None:
                flags.append(f"{which}-ci-unavailable")
                print(f"note: node ({i}, {j}): {refusal.exception(0, l)}", file=sys.stderr)
                row |= dict.fromkeys((f"{which}_se", f"{which}_lower", f"{which}_upper"))
                continue
            root = math.sqrt(float(av.value[0, l]) / count)
            row |= {
                f"{which}_se": root * factor,
                f"{which}_lower": (point[which] - z * root) * factor,
                f"{which}_upper": (point[which] + z * root) * factor,
            }
        rows.append(row)
    return rows, target_id


def _cmd_estimate(args) -> int:
    table, spec, data, model = _load_inputs(args)
    _report_markov(args, data)
    rows, target_id = _estimate_rows(args, spec, data, model, _nodes(spec.levels))
    doc = estimate_document(
        estimator=args.estimator,
        target=target_id,
        level=args.level,
        n=data.n,
        columns=spec.levels,
        labels=spec.labels or [tuple(str(k + 1) for k in range(r)) for r in spec.levels],
        rows=rows,
    )
    _write(doc, args.out, args.format)
    return 0


def _cmd_compare(args) -> int:
    """Within-column differences of the rows ``estimate`` reports for the
    same flags; the two cells' standard errors add in quadrature."""
    table, spec, data, model = _load_inputs(args)
    _report_markov(args, data)

    if args.column is None:
        columns = list(range(1, spec.c + 1))
    else:
        try:
            j = int(args.column)
        except ValueError:
            if args.column not in table.factor_names:
                raise DataError(f"missing column {args.column!r}") from None
            j = table.factor_names.index(args.column) + 1
        if not 1 <= j <= spec.c:
            raise DataError(f"column index {j} outside 1..{spec.c}")
        columns = [j]

    pair = None
    if args.pair is not None:
        try:
            a, b = (int(x) for x in args.pair.split(","))
        except ValueError:
            raise UsageError(f"--pair expects 'i,i2', got {args.pair!r}") from None
        pair = (a, b)

    pairs = []
    for j in columns:
        r = spec.levels[j - 1]
        if pair is not None:
            if not (1 <= pair[0] <= r and 1 <= pair[1] <= r):
                raise DataError(
                    f"pair {pair} outside 1..{r} for column {j}"
                )
            pairs.append((j, *pair))
        else:
            pairs += [(j, i, i2) for i in range(1, r + 1) for i2 in range(i + 1, r + 1)]

    wanted = {(i, j) for j, i, _ in pairs} | {(i2, j) for j, _, i2 in pairs}
    nodes = [node for node in _nodes(spec.levels) if node in wanted]
    cell_rows, target_id = _estimate_rows(args, spec, data, model, nodes)
    cells = {(row["level_index"], row["column"]): row for row in cell_rows}
    z = _quantile(args.level)
    rows = []
    for j, i, i2 in pairs:
        a, b = cells[(i, j)], cells[(i2, j)]
        for which in ("mean", "variance"):
            row = {
                "column": j, "which": which,
                "level_a": i, "level_b": i2,
                "label_a": spec.label(j, i), "label_b": spec.label(j, i2),
                "difference": None, "se": None, "lower": None, "upper": None,
                "flags": [],
            }
            missing = [flag for flag in ("no-data", "support-incomplete")
                       if flag in a["flags"] + b["flags"]]
            if missing:
                row["flags"] += missing
            else:
                row["difference"] = diff = a[which] - b[which]
                se_a, se_b = a[f"{which}_se"], b[f"{which}_se"]
                if se_a is None or se_b is None:
                    row["flags"].append("ci-unavailable")
                else:
                    se = math.sqrt(se_a * se_a + se_b * se_b)
                    row |= {"se": se, "lower": diff - z * se, "upper": diff + z * se}
            rows.append(row)
    doc = compare_document(
        estimator=args.estimator, target=target_id, level=args.level, n=data.n,
        rows=rows,
    )
    _write(doc, args.out, args.format)
    return 0


def _cmd_discretize(args) -> int:
    table = load_table(args.data, args.factors, args.response)
    rules = {
        name: quantile_discretize(table.numeric_column(name), args.groups, column=name)
        for name in args.columns
    }
    apply_rules(table, rules).write_csv(args.out)
    doc = discretize_document([rules[name] for name in args.columns])
    _write(doc, args.rules_out, args.format)
    return 0


def _cmd_kernel(args) -> int:
    if args.format == "csv":
        raise UsageError("kernel emits a model-file JSON document; use --format json")
    table = load_table(args.data, args.factors, args.response)
    spec, data = table.to_path_dataset()
    _report_markov(args, data)
    kern = estimate_kernel(data, smoothing=args.smoothing)
    if args.out is None:
        json.dump(model_to_dict(kern, labels=spec.labels), sys.stdout, indent=2,
                  allow_nan=False)
        sys.stdout.write("\n")
    else:
        save_model(args.out, kern, labels=spec.labels)
    return 0


def _cmd_validate(args) -> int:
    model = load_model(args.model)
    if model.quality is None:
        raise ModelError(f"{args.model}: validation needs a quality section")
    spec, kernel, quality = model.spec, model.kernel, model.quality
    target, target_id = _resolve_target(args.target_kernel, spec)
    reachable = _reachable_nodes(kernel)
    rows = []

    problems = validate_dag(spec)
    rows.append({
        "name": "dag-valid", "passed": not problems, "value": float(len(problems)),
        "threshold": 0.0, "detail": "; ".join(problems) or "ok",
    })

    dev = abs(float(kernel.initial.sum()) - 1.0)
    for s in kernel.steps:
        dev = max(dev, float(np.abs(s.sum(axis=1) - 1.0).max()))
    rows.append({
        "name": "kernel-rows-stochastic", "passed": dev <= 1e-12, "value": dev,
        "threshold": 1e-12, "detail": "max row-sum deviation",
    })

    try:
        worst = 0.0
        for i, j in reachable:
            for f in ("b", "b2"):
                worst = max(worst, verify_measure_change(kernel, target, quality, j, i, f))
        rows.append({
            "name": "measure-change-identity", "passed": worst <= 1e-10,
            "value": worst, "threshold": 1e-10,
            "detail": f"max residual over {len(reachable)} nodes, f in {{b, b2}}",
        })
    except ModelError as exc:
        rows.append({
            "name": "measure-change-identity", "passed": False, "value": None,
            "threshold": 1e-10, "detail": str(exc),
        })

    try:
        means, variances = exact_estimator_targets(kernel, target, quality)
        finite = all(
            math.isfinite(means[i - 1, j - 1]) and math.isfinite(variances[i - 1, j - 1])
            for i, j in reachable
        )
        rows.append({
            "name": "estimator-targets-finite", "passed": finite,
            "value": float(len(reachable)), "threshold": float(len(reachable)),
            "detail": "exact targets at all reachable nodes",
        })
    except ModelError as exc:
        rows.append({
            "name": "estimator-targets-finite", "passed": False, "value": None,
            "threshold": None, "detail": str(exc),
        })

    psd_detail, psd_ok = "all contractions nonnegative", True
    try:
        for i, j in reachable:
            asym_var_mean_known(kernel, target, quality, i, j)
            asym_var_mean_unknown(kernel, target, quality, i, j)
            asym_var_variance_known(kernel, target, quality, i, j)
            asym_var_variance_unknown(kernel, target, quality, i, j)
    except ModelError as exc:
        psd_detail = f"skipped variance-target checks: {exc}"
    except StatisticalError as exc:
        psd_ok, psd_detail = False, str(exc)
    rows.append({
        "name": "asymptotic-psd", "passed": psd_ok, "value": None, "threshold": None,
        "detail": psd_detail,
    })

    try:
        config = ExperimentConfig(
            spec=spec, kernel=kernel, quality=quality, n=args.n, seed=args.seed,
            replicates=args.replicates, target=target, level=args.level,
        )
        result = coverage_study(config, kind="plugin", level=args.level, which="mean")
        tail = min(
            binomial_tail(int(np.sum(covered)), args.replicates, args.level)
            for covered in result.covered.values()
        )
        rows.append({
            "name": "plugin-mean-coverage", "passed": tail >= COVERAGE_ALPHA,
            "value": tail, "threshold": COVERAGE_ALPHA,
            "detail": f"smallest Binomial({args.replicates}, {args.level}) tail of the "
                      f"nodes' covering counts, replicates of n={args.n}",
        })
    except (ModelError, StatisticalError) as exc:
        rows.append({
            "name": "plugin-mean-coverage", "passed": True, "value": None,
            "threshold": None, "detail": f"skipped: {exc}",
        })

    try:
        probe = ExperimentConfig(
            spec=spec, kernel=kernel, quality=quality, n=100_000, seed=args.seed,
        )
        sampled = sample_dataset(probe, 0)
        # the sample's frequencies against the kernel: the initial vector,
        # and each step's rows at the levels the sample visits
        err = float(np.abs(_joint_counts(sampled, (1,)) / sampled.n - kernel.initial).max())
        for j, step in enumerate(kernel.steps, start=1):
            pair = _joint_counts(sampled, (j, j + 1))
            totals = pair.sum(axis=1)
            seen = totals > 0
            err = max(err, float(np.abs(pair[seen] / totals[seen, None] - step[seen]).max()))
        rows.append({
            "name": "kernel-recovery", "passed": err < 0.02, "value": err,
            "threshold": 0.02, "detail": "max kernel-entry error at n=100000",
        })
    except (ModelError, StatisticalError) as exc:
        rows.append({
            "name": "kernel-recovery", "passed": True, "value": None,
            "threshold": None, "detail": f"skipped: {exc}",
        })

    doc = validate_document(rows)
    _write(doc, args.out, args.format)
    failed = [row["name"] for row in rows if not row["passed"]]
    if failed:
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return 4
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "compare": _cmd_compare,
    "validate": _cmd_validate,
    "discretize": _cmd_discretize,
    "kernel": _cmd_kernel,
}


def run_command(argv) -> int:
    """Parse and execute; returns the exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StatisticalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (``daglm estimate ... | head``).
        # Point stdout at devnull, so that the interpreter's final flush of
        # what is still buffered does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
