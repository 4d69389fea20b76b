"""Workloads of the daglm benchmark: sizes, the inputs each builds
deterministically from the seed, and the commands it runs.

Every workload gets a *plan*: a small JSON document written next to its
generated files. The parent process and its child processes both read the
plan, so the program under test only ever sees the generated files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("csv-4x4", "study-2x2", "exact-5x4")

# Workload sizes. The toy sizes run every workload and every check in
# seconds; they exist so the smoke test keeps the harness working.
SIZES = {
    "csv-4x4": {
        "full": {"columns": 4, "levels": 4, "n": 15_000},
        "toy": {"columns": 3, "levels": 3, "n": 2_000},
    },
    "study-2x2": {
        "full": {"replicates": 100},
        "toy": {"replicates": 100},
    },
    "exact-5x4": {
        "full": {"columns": 5, "levels": 4},
        "toy": {"columns": 3, "levels": 3},
    },
}

#: every path of the csv-4x4 model expects at least this many records, so
#: the plugin estimator sees every support path and its plug-in variance
#: sees each one at least twice
MIN_PATH_RECORDS = 20

#: kernel-entry floor of the exact-5x4 model (strictly positive kernel)
EXACT_FLOOR = 0.05

#: the study workload uses this bundled config, relative to the checkout
STUDY_CONFIG = "src/daglm/data/demo_config.json"


def seed_key(seed: int) -> int:
    """Non-negative 63-bit form of the benchmark seed."""
    return seed % 2**63


def _stochastic_row(rng: np.random.Generator, size: int, floor: float) -> list[float]:
    return (floor + (1.0 - size * floor) * rng.dirichlet(np.ones(size))).tolist()


def random_model(
    rng: np.random.Generator, columns: int, levels: int, floor: float
) -> dict:
    """Model-file document: a Markov kernel whose rows are a floor plus
    Dirichlet(1) mass, and Gaussian node qualities."""
    if not 0.0 < levels * floor < 1.0:
        raise ValueError(f"kernel floor {floor} impossible for {levels} levels")
    doc = {
        "schema_version": 1,
        "columns": [levels] * columns,
        "initial": _stochastic_row(rng, levels, floor),
        "steps": [
            [_stochastic_row(rng, levels, floor) for _ in range(levels)]
            for _ in range(columns - 1)
        ],
    }
    means = rng.normal(0.0, 2.0, size=(levels, columns))
    variances = rng.uniform(0.5, 2.0, size=(levels, columns))
    doc["quality"] = {
        f"{i},{j}": {
            "kind": "gaussian",
            "mean": float(means[i - 1, j - 1]),
            "variance": float(variances[i - 1, j - 1]),
        }
        for j in range(1, columns + 1)
        for i in range(1, levels + 1)
    }
    return doc


def _write_json(path: Path, doc) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def prepare(workload: str, seed: int, toy: bool, root: Path, work: Path) -> dict:
    """Write the workload's input files into ``work`` and return its plan."""
    size = SIZES[workload]["toy" if toy else "full"]
    key = seed_key(seed)
    rng = np.random.default_rng([key, WORKLOADS.index(workload)])
    plan = {"workload": workload, "seed": key, "toy": toy}
    if workload == "csv-4x4":
        n = size["n"]
        floor = (MIN_PATH_RECORDS / n) ** (1.0 / size["columns"])
        model = random_model(rng, size["columns"], size["levels"], floor)
        _write_json(work / "model.json", model)
        _write_json(work / "config.json", {"model-ref": "model.json", "n": n, "seed": key})
        plan |= {"model": "model.json", "config": "config.json", "n": n, "work_units": n}
    elif workload == "study-2x2":
        config_path = root / STUDY_CONFIG
        with config_path.open(encoding="utf-8") as fh:
            model_ref = json.load(fh)["model-ref"]
        plan |= {
            "config": str(config_path),
            "model": str(config_path.parent / model_ref),
            "replicates": size["replicates"],
            "work_units": 2 * size["replicates"],
        }
    else:
        model = random_model(rng, size["columns"], size["levels"], EXACT_FLOOR)
        _write_json(work / "model.json", model)
        plan |= {
            "model": "model.json",
            "work_units": size["columns"] * size["levels"],
        }
    _write_json(work / "plan.json", plan)
    return plan


def csv_commands(plan: dict, prefix: str = "") -> list[tuple[str, list[str]]]:
    """The three ``daglm`` command lines of one csv-4x4 pass, run from the
    work directory: simulate writes the CSV that estimate and compare read."""
    data = f"{prefix}data.csv"
    return [
        ("simulate", ["simulate", "--config", plan["config"], "--out", data]),
        ("estimate", ["estimate", "--data", data, "--estimator", "plugin",
                      "--out", f"{prefix}estimate.json"]),
        ("compare", ["compare", "--data", data, "--estimator", "plugin",
                     "--out", f"{prefix}compare.json"]),
    ]


def trace_passes(plan: dict) -> int:
    """Passes in a traced run: one, except that the study repeats until it
    has at least 1000 replicate intervals (two studies of R replicates give
    2R per pass)."""
    if plan["workload"] == "study-2x2" and not plan["toy"]:
        return math.ceil(1000 / plan["work_units"])
    return 1
