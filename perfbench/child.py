"""Child process of the daglm benchmark.

Imports ``daglm`` from the checkout, loads one workload's inputs and, in
``passes`` mode, runs the workload's passes in process, optionally under the
span tracer. Results go to a JSON file for the parent to check.

    python child.py setup PLAN
    python child.py passes PLAN SECONDS MIN_PASSES TRACE SCALE OUT

``setup`` only imports and loads; the parent times the whole process.
``passes`` runs at least MIN_PASSES passes, and more while another pass of
average length still ends within SECONDS. TRACE (0 or 1) installs the span
tracer. With SCALE 1 every timed part of a pass runs between two
measurements of the reference kernel (reference.py); traced runs use 0, so
that they time daglm alone.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

from reference import Meter
from workloads import csv_commands

STUDIES = (("plugin", "mean"), ("weighted", "variance"))


def load_inputs(plan: dict):
    import daglm

    if plan["workload"] == "exact-5x4":
        model = daglm.load_model(plan["model"])
        return model, daglm.uniform_kernel(model.spec)
    config = daglm.load_config(plan["config"])
    if plan["workload"] == "study-2x2":
        config = dataclasses.replace(
            config, seed=plan["seed"], replicates=plan["replicates"]
        )
    return config


def _op(name: str, meter: Meter, fn) -> dict:
    """Run one operation, which times its parts on ``meter``; an exception
    is recorded as the op's error. The op's time is that of its parts."""
    first = len(meter.parts)
    try:
        result, error = fn(), None
    except Exception as exc:  # an op that raises counts as failed
        result, error = None, f"{type(exc).__name__}: {exc}"
    return {"op": name, "seconds": sum(part[1] for part in meter.parts[first:]),
            "result": result, "error": error}


def csv_pass(plan, inputs, prefix, meter):
    import daglm.cli

    def command(name, argv):
        def run():
            code = meter.time(name, daglm.cli.run_command, argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
        return run

    return [_op(name, meter, command(name, argv))
            for name, argv in csv_commands(plan, prefix)]


def study_pass(plan, config, prefix, meter):
    from daglm import simulation

    def study(kind, which):
        def run():
            res = meter.time(f"{kind}/{which}", simulation.coverage_study,
                             config, kind=kind, which=which)
            coverage = res.coverage
            return {
                "kind": kind, "which": which, "level": res.level,
                "nodes": [[i, j, coverage[(i, j)], res.targets[(i, j)]]
                          for i, j in res.nodes],
            }
        return run

    return [_op(f"{kind}/{which}", meter, study(kind, which)) for kind, which in STUDIES]


def exact_pass(plan, inputs, prefix, meter):
    from daglm import asymptotics, oracle

    model, target = inputs
    kernel, quality = model.kernel, model.quality
    nodes = [(i, j) for j, r in enumerate(model.spec.levels, start=1)
             for i in range(1, r + 1)]
    fns = (asymptotics.asym_var_mean_known, asymptotics.asym_var_mean_unknown,
           asymptotics.asym_var_variance_known, asymptotics.asym_var_variance_unknown)

    def targets():
        means, variances = meter.time("targets", oracle.exact_estimator_targets,
                                      kernel, target, quality)
        return {"means": means.tolist(), "variances": variances.tolist()}

    def closed_form():
        def at(i, j):
            return [fn(kernel, target, quality, i, j).value for fn in fns]
        return {"values": [v for k, node in enumerate(nodes)
                           for v in meter.time(f"closed_form#{k}", at, *node)]}

    def measure_change():
        def at(i, j):
            return [oracle.verify_measure_change(kernel, target, quality, j, i, f)
                    for f in ("b", "b2")]
        return {"residuals": [r for k, node in enumerate(nodes)
                              for r in meter.time(f"measure_change#{k}", at, *node)]}

    return [_op("targets", meter, targets), _op("closed_form", meter, closed_form),
            _op("measure_change", meter, measure_change)]


PASSES = {"csv-4x4": csv_pass, "study-2x2": study_pass, "exact-5x4": exact_pass}


# ---------------------------------------------------------------------------
# tracing: the public functions of each daglm module, where every module
# binds them; the span names are the per-layer metric prefixes

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _note_rows_read(tracer, args, kwargs, table):
    if table is not None:
        tracer.counts["tabular.rows_read"] += table.n


def _note_paths(tracer, args, kwargs, paths):
    if paths is not None:
        tracer.counts["model.enumerate_support_paths.paths"] += len(paths)


def _note_matrix(tracer, args, kwargs, av):
    if av is not None:
        tracer.counts["asymptotics.matrix_cells"] += av.matrix.size


def _note_cell(i_pos):
    """Counts for a cell-level call taking (data, ..., i, j) with i at
    ``i_pos``: rows masked, and the distinct (dataset, node) pairs."""
    def note(tracer, args, kwargs, result):
        data = _arg(args, kwargs, 0, "data")
        tracer.counts["estimators.rows_scanned"] += data.n
        i, j = _arg(args, kwargs, i_pos, "i"), _arg(args, kwargs, i_pos + 1, "j")
        tracer.cells.add((tracer.dataset_key(data), i, j))
        if hasattr(result, "matrix"):
            _note_matrix(tracer, args, kwargs, result)
    return note


TRACED = (
    ("daglm.cli", "run_command", "cli.run_command", None),
    ("daglm.report", "write_document", "report.write_document", None),
    ("daglm.tabular", "load_table", "tabular.load_table", _note_rows_read),
    ("daglm.tabular", "TabularDataset.to_path_dataset", "tabular.to_path_dataset", None),
    ("daglm.tabular", "write_dataset_csv", "tabular.write_dataset_csv", None),
    ("daglm.modelfile", "load_model", "modelfile.load_model", None),
    ("daglm.simulation", "load_config", "simulation.load_config", None),
    ("daglm.simulation", "coverage_study", "simulation.coverage_study", None),
    ("daglm.simulation", "sample_dataset", "simulation.sample_dataset", None),
    ("daglm.estimators", "cell_estimate", "estimators.cell_estimate", _note_cell(1)),
    ("daglm.asymptotics", "plugin_asym_var", "asymptotics.plugin_asym_var", _note_cell(2)),
    ("daglm.asymptotics", "asym_var_mean_known", "asymptotics.closed_form", _note_matrix),
    ("daglm.asymptotics", "asym_var_mean_unknown", "asymptotics.closed_form", _note_matrix),
    ("daglm.asymptotics", "asym_var_variance_known", "asymptotics.closed_form", _note_matrix),
    ("daglm.asymptotics", "asym_var_variance_unknown", "asymptotics.closed_form",
     _note_matrix),
    ("daglm.asymptotics", "confidence_interval", "asymptotics.confidence_interval", None),
    ("daglm.oracle", "exact_estimator_targets", "oracle.exact_estimator_targets", None),
    ("daglm.oracle", "verify_measure_change", "oracle.verify_measure_change", None),
    ("daglm.oracle", "path_raw_moments", "oracle.path_raw_moments", None),
    ("daglm.model", "enumerate_support_paths", "model.enumerate_support_paths", _note_paths),
    ("daglm.model", "conditional_path_probability", "model.conditional_path_probability",
     None),
    ("daglm.model", "node_marginal", "model.node_marginal", None),
)


def install_tracer():
    from spans import Tracer

    tracer = Tracer()
    for module, attr, name, note in TRACED:
        tracer.install(module, attr, name, note)
    return tracer


def main(argv) -> int:
    mode, plan_path = argv[0], argv[1]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    inputs = load_inputs(plan)
    if mode == "setup":
        return 0
    seconds, min_passes = float(argv[2]), int(argv[3])
    trace, scale, out = argv[4] == "1", argv[5] == "1", argv[6]
    import daglm.cli  # noqa: F401  (the tracer wraps cli and report too)

    tracer = install_tracer() if trace else None
    run_pass = PASSES[plan["workload"]]
    meter = Meter(scale=scale)
    passes = []
    start = time.perf_counter()
    while True:
        first = len(meter.parts)
        # every pass writes its own files, so the parent checks each one
        ops = run_pass(plan, inputs, f"{Path(out).stem}-{len(passes)}-", meter)
        passes.append({"ops": ops, "parts": meter.parts[first:]})
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            break  # one more pass of average length would overrun
    doc = {"wall_s": time.perf_counter() - start, "passes": passes}
    if tracer is not None:
        tracer.save(Path(out).with_suffix(".npz"))
        doc |= {"counts": dict(tracer.counts), "cells": len(tracer.cells)}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
