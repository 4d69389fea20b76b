"""Reading and writing model files.

A model file is a JSON document with fields::

    {
      "schema_version": 1,                      # optional, must be 1
      "columns": [r_1, ..., r_c],
      "labels":  [["lvl1", ...], ...],          # optional, per column
      "initial": [q_1, ..., q_{r_1}],
      "steps":   [[[...]], ...],                # c-1 row-stochastic matrices
      "quality": {"i,j": {"kind": ..., ...}}    # optional, per node
    }

Quality keys are "level,column" pairs. Per-kind parameters: gaussian uses
mean/variance, bernoulli uses prob, point-mass uses value, and
empirical-moments uses moments (raw moments m_1..m_K). Unknown fields at any
level are rejected, as are NaN/Infinity literals and numbers that are not
finite as floats.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ModelError
from .model import (
    _QUALITY_FIELDS,
    DagSpec,
    NodeQuality,
    QualityModel,
    TransitionKernel,
    validate_dag,
)

_TOP_FIELDS = {"schema_version", "columns", "labels", "initial", "steps", "quality"}


@dataclass(frozen=True)
class ModelFile:
    spec: DagSpec
    kernel: TransitionKernel
    quality: QualityModel | None


def _reject_constant(token: str):
    raise ModelError(f"non-finite literal {token!r} not allowed in model files")


def _finite_number(x) -> bool:
    """Whether ``x`` is a JSON number, not a boolean, that is finite as a
    float: not NaN or infinite, and not an integer too large to convert."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _number_list(obj, what: str) -> list[float]:
    if not isinstance(obj, list) or not all(map(_finite_number, obj)):
        raise ModelError(f"{what} must be a list of finite numbers")
    return [float(x) for x in obj]


def model_from_dict(obj) -> ModelFile:
    """Build a model from an already-parsed JSON object."""
    if not isinstance(obj, dict):
        raise ModelError("model document must be a JSON object")
    unknown = set(obj) - _TOP_FIELDS
    if unknown:
        raise ModelError(f"unknown model fields: {', '.join(sorted(unknown))}")
    if obj.get("schema_version", 1) != 1:
        raise ModelError(f"unsupported schema_version {obj['schema_version']!r}")
    for required in ("columns", "initial", "steps"):
        if required not in obj:
            raise ModelError(f"model file missing field {required!r}")

    columns = obj["columns"]
    if (
        not isinstance(columns, list)
        or not columns
        or not all(isinstance(r, int) and not isinstance(r, bool) for r in columns)
    ):
        raise ModelError("columns must be a nonempty list of integers")
    labels = None
    if "labels" in obj:
        raw = obj["labels"]
        if not isinstance(raw, list) or not all(isinstance(col, list) for col in raw):
            raise ModelError("labels must be a list of per-column label lists")
        labels = tuple(tuple(str(x) for x in col) for col in raw)
    spec = DagSpec(tuple(columns), labels)
    problems = validate_dag(spec)
    if problems:
        raise ModelError("invalid model: " + "; ".join(problems))

    initial = _number_list(obj["initial"], "initial")
    steps_raw = obj["steps"]
    if not isinstance(steps_raw, list):
        raise ModelError("steps must be a list of matrices")
    if len(steps_raw) != spec.c - 1:
        raise ModelError(
            f"expected {spec.c - 1} step matrices for {spec.c} columns, "
            f"got {len(steps_raw)}"
        )
    steps = []
    for k, mat in enumerate(steps_raw, start=1):
        if not isinstance(mat, list):
            raise ModelError(f"step {k} must be a matrix")
        steps.append([_number_list(row, f"step {k} row") for row in mat])
    try:
        kernel = TransitionKernel(initial, tuple(steps))
    except ModelError as exc:
        raise ModelError(f"invalid kernel: {exc}") from None
    if kernel.levels != spec.levels:
        raise ModelError(
            f"kernel shape {kernel.levels} does not match columns {spec.levels}"
        )

    quality = None
    if "quality" in obj:
        quality = _quality_from_dict(obj["quality"], spec)
    return ModelFile(spec, kernel, quality)


def _quality_from_dict(raw, spec: DagSpec) -> QualityModel:
    if not isinstance(raw, dict):
        raise ModelError("quality must be an object keyed by 'level,column'")
    nodes = {}
    for key, val in raw.items():
        try:
            i_str, j_str = key.split(",")
            i, j = int(i_str), int(j_str)
        except ValueError:
            raise ModelError(f"bad quality key {key!r}, expected 'level,column'") from None
        if not 1 <= j <= spec.c or not 1 <= i <= spec.levels[j - 1]:
            raise ModelError(f"quality key {key!r} outside the DAG")
        if not isinstance(val, dict) or "kind" not in val:
            raise ModelError(f"quality entry {key!r} must be an object with a kind")
        kind = val["kind"]
        if not isinstance(kind, str) or kind not in _QUALITY_FIELDS:
            raise ModelError(f"quality entry {key!r} has unknown kind {kind!r}")
        unknown = set(val) - {"kind", *_QUALITY_FIELDS[kind]}
        if unknown:
            raise ModelError(
                f"quality entry {key!r} has unknown fields: {', '.join(sorted(unknown))}"
            )
        params = {}
        for name in _QUALITY_FIELDS[kind]:
            if name not in val:
                raise ModelError(f"quality entry {key!r} missing field {name!r}")
            x, what = val[name], f"quality entry {key!r} field {name!r}"
            if name == "moments":
                params[name] = tuple(_number_list(x, what))
            elif not _finite_number(x):
                raise ModelError(f"{what} must be a finite number, got {x!r}")
            else:
                params[name] = float(x)
        try:
            nodes[(i, j)] = NodeQuality(kind, **params)
        except ModelError as exc:
            raise ModelError(f"quality entry {key!r}: {exc}") from None
    return QualityModel(nodes)


def model_to_dict(
    kernel: TransitionKernel,
    labels=None,
    quality: QualityModel | None = None,
) -> dict:
    """Serializable document for a kernel with optional labels and quality."""
    doc: dict = {"schema_version": 1, "columns": list(kernel.levels)}
    if labels is not None:
        doc["labels"] = [list(col) for col in labels]
    doc["initial"] = kernel.initial.tolist()
    doc["steps"] = [s.tolist() for s in kernel.steps]
    if quality is not None:
        qdoc = {}
        for (i, j), node in sorted(quality.nodes.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            entry: dict = {"kind": node.kind}
            for name in _QUALITY_FIELDS[node.kind]:
                x = getattr(node, name)
                entry[name] = list(x) if name == "moments" else x
            qdoc[f"{i},{j}"] = entry
        doc["quality"] = qdoc
    return doc


def load_model(path: str | Path) -> ModelFile:
    """Load and validate a model file."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ModelError(f"model file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file {path} is not valid JSON: {exc}") from None
    try:
        return model_from_dict(obj)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None


def save_model(
    path: str | Path,
    kernel: TransitionKernel,
    labels=None,
    quality: QualityModel | None = None,
) -> None:
    """Write a model file; inverse of :func:`load_model`."""
    doc = model_to_dict(kernel, labels=labels, quality=quality)
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")
