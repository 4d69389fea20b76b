"""Machine-readable report documents and their CSV/JSON serialization.

Every report is a plain dict with ``schema_version`` and ``command`` plus a
``rows`` list of flat records. JSON output is the dict itself; CSV output is
the rows with the two header fields repeated per row, RFC-4180 quoting, and
``None`` rendered as the empty string. The published JSON Schema lives in
``daglm/schemas/report.schema.json``.
"""

from __future__ import annotations

import csv
import json

SCHEMA_VERSION = 1

_FIELD_ORDER = {
    "estimate": (
        "column", "level_index", "label", "count",
        "mean", "mean_se", "mean_lower", "mean_upper",
        "variance", "variance_se", "variance_lower", "variance_upper",
        "flags",
    ),
    "compare": (
        "column", "which", "level_a", "level_b", "label_a", "label_b",
        "difference", "se", "lower", "upper", "flags",
    ),
    "discretize": ("column", "groups", "breaks"),
    "validate": ("name", "passed", "value", "threshold", "detail"),
}


def estimate_document(
    estimator: str, target: str, level: float, n: int, columns, labels, rows
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "estimator": estimator,
        "target_kernel": target,
        "level": float(level),
        "n": int(n),
        "columns": [int(r) for r in columns],
        "labels": [[str(x) for x in col] for col in labels],
        "rows": rows,
    }


def compare_document(
    estimator: str, target: str, level: float, n: int, rows
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "estimator": estimator,
        "target_kernel": target,
        "level": float(level),
        "n": int(n),
        "rows": rows,
    }


def discretize_document(rules) -> dict:
    rows = [
        {
            "column": rule.column,
            "groups": int(rule.groups),
            "breaks": [float(b) for b in rule.breaks],
        }
        for rule in rules
    ]
    return {"schema_version": SCHEMA_VERSION, "command": "discretize", "rows": rows}


def validate_document(rows) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": "validate", "rows": rows}


def write_document(doc: dict, fmt: str, dest) -> None:
    """Serialize a report document as ``json`` or ``csv`` to a writable."""
    if fmt == "json":
        json.dump(doc, dest, indent=2, allow_nan=False)
        dest.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    fields = _FIELD_ORDER.get(doc["command"])
    if fields is None:
        raise ValueError(f"command {doc['command']!r} has no CSV layout")
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(("schema_version", "command") + fields)
    for row in doc["rows"]:
        rendered = []
        for name in fields:
            value = row.get(name)
            if value is None:
                rendered.append("")
            elif isinstance(value, bool):
                rendered.append("true" if value else "false")
            elif isinstance(value, (list, tuple)):
                rendered.append(";".join(str(v) for v in value))
            elif isinstance(value, float):
                rendered.append(repr(value))
            else:
                rendered.append(str(value))
        writer.writerow([doc["schema_version"], doc["command"]] + rendered)
