"""Tabular ingestion: CSV loading, label-to-level mapping, and quantile
discretization of numeric covariates.

Input files are comma-separated UTF-8 text with a mandatory header row and
``.`` as the decimal separator. Factor labels are mapped to level indices by
sorting the distinct labels of each column: numerically when every label
parses as a number, lexicographically otherwise. That ordering is part of
the reported output (level indices appear in pairwise reports), so it is
fixed here rather than left to file order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ModelError
from .model import DagSpec, PathDataset


@dataclass(frozen=True)
class TabularDataset:
    """Raw factor labels plus numeric responses, one row per observation."""

    factor_names: tuple[str, ...]
    response_name: str
    factors: tuple[tuple[str, ...], ...]  # row-major, one tuple per row
    responses: np.ndarray

    def __post_init__(self):
        responses = np.array(self.responses, dtype=float)
        responses.setflags(write=False)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "factors", tuple(tuple(r) for r in self.factors))
        object.__setattr__(self, "factor_names", tuple(self.factor_names))

    @property
    def n(self) -> int:
        return len(self.factors)

    def column(self, name: str) -> list[str]:
        try:
            idx = self.factor_names.index(name)
        except ValueError:
            raise DataError(f"missing column {name!r}") from None
        return [row[idx] for row in self.factors]

    def to_path_dataset(
        self, label_order: dict[str, tuple[str, ...]] | None = None
    ) -> tuple[DagSpec, PathDataset]:
        """Map labels to 1-based levels and return the spec plus dataset.

        ``label_order`` optionally pins the level order of named columns
        (used to align data with a model file's labels); every observed
        label must then appear in the given order.
        """
        orders: list[tuple[str, ...]] = []
        for idx, name in enumerate(self.factor_names):
            seen = [row[idx] for row in self.factors]
            if label_order is not None and name in label_order:
                order = tuple(str(x) for x in label_order[name])
                missing = sorted(set(seen) - set(order))
                if missing:
                    raise DataError(
                        f"column {name!r} has labels {missing} absent from the "
                        "model's label list"
                    )
            else:
                order = tuple(sort_labels(set(seen)))
            orders.append(order)
        spec = DagSpec(tuple(len(o) for o in orders), tuple(orders))
        maps = [{lab: k + 1 for k, lab in enumerate(o)} for o in orders]
        paths = np.array(
            [[maps[idx][row[idx]] for idx in range(len(orders))] for row in self.factors],
            dtype=np.int64,
        ).reshape(self.n, len(orders))
        return spec, PathDataset(spec, paths, self.responses)


def sort_labels(labels) -> list[str]:
    """Deterministic label order: numeric when all labels are numbers,
    lexicographic otherwise."""
    labels = [str(x) for x in labels]
    try:
        return sorted(labels, key=lambda s: (float(s), s))
    except ValueError:
        return sorted(labels)


def _open_text(source):
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8-sig", newline=""), True


def _repeated(names) -> list[str]:
    return sorted({name for name in names if names.count(name) > 1})


def load_table(
    source,
    factor_columns: list[str] | None = None,
    response_column: str | None = None,
) -> TabularDataset:
    """Read a CSV file into a :class:`TabularDataset`.

    By default the last column is the response and all other columns are
    factors.
    """
    fh, should_close = _open_text(source)
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: no header row") from None
        rows = [row for row in reader if row]
    finally:
        if should_close:
            fh.close()

    if header:
        # a file-like source opened as plain UTF-8 keeps the byte-order mark
        header[0] = header[0].removeprefix("\ufeff")
    header = [h.strip() for h in header]
    if response_column is None:
        response_column = header[-1]
    if response_column not in header:
        raise DataError(f"missing column {response_column!r}")
    if factor_columns is None:
        factor_columns = [h for h in header if h != response_column]
    if not factor_columns:
        raise DataError("no factor columns")
    for names in (header, list(factor_columns)):
        repeated = _repeated(names)
        if repeated:
            raise DataError(f"duplicate column names {repeated}")
    for name in factor_columns:
        if name not in header:
            raise DataError(f"missing column {name!r}")
        if name == response_column:
            raise DataError(f"column {name!r} cannot be both factor and response")
    if not rows:
        raise DataError("empty file: no data rows")

    f_idx = [header.index(name) for name in factor_columns]
    r_idx = header.index(response_column)
    factors = []
    responses = []
    for k, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"data row {k}: {len(row)} fields, expected {len(header)}")
        try:
            responses.append(float(row[r_idx]))
        except ValueError:
            raise DataError(
                f"data row {k}: non-numeric response {row[r_idx]!r}"
            ) from None
        factors.append(tuple(row[idx].strip() for idx in f_idx))
    return TabularDataset(
        factor_names=tuple(factor_columns),
        response_name=response_column,
        factors=tuple(factors),
        responses=np.array(responses),
    )


# ---------------------------------------------------------------------------
# discretization

@dataclass(frozen=True)
class DiscretizationRule:
    """Break points splitting one numeric column into ordered groups.

    Intervals are left-open and right-closed, except the first which is
    closed on both ends; a value equal to a break point goes to the lower
    group.
    """

    column: str
    groups: int
    breaks: tuple[float, ...]

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        object.__setattr__(self, "breaks", breaks)
        if len(breaks) != self.groups + 1:
            raise ModelError(
                f"{len(breaks)} break points for {self.groups} groups"
            )
        if not all(a < b for a, b in zip(breaks, breaks[1:])):
            raise ModelError("break points must be strictly increasing")

    def assign(self, values) -> np.ndarray:
        """1-based group index per value; values outside the break range are
        errors."""
        v = np.asarray(values, dtype=float)
        if not np.isfinite(v).all():
            raise DataError(f"column {self.column!r} has non-finite values")
        if (v < self.breaks[0]).any() or (v > self.breaks[-1]).any():
            bad = v[(v < self.breaks[0]) | (v > self.breaks[-1])][0]
            raise DataError(
                f"value {bad!r} outside the rule range "
                f"[{self.breaks[0]}, {self.breaks[-1]}] for column {self.column!r}"
            )
        return np.searchsorted(np.array(self.breaks[1:]), v, side="left") + 1


def quantile_discretize(values, groups: int, column: str = "") -> DiscretizationRule:
    """Equal-size grouping: breaks at the empirical quantiles k/groups using
    linear interpolation of order statistics (the "type 7" definition)."""
    if groups < 2:
        raise ModelError(f"need at least 2 groups, got {groups}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DataError("values must be a nonempty 1-d collection")
    if not np.isfinite(v).all():
        raise DataError("values contain non-finite entries")
    if np.unique(v).size < groups:
        raise DataError(
            f"too few distinct values ({np.unique(v).size}) for {groups} groups"
        )
    probs = np.linspace(0.0, 1.0, groups + 1)
    breaks = np.quantile(v, probs, method="linear")
    if not np.all(np.diff(breaks) > 0):
        raise DataError(
            "quantile breaks not strictly increasing (too many tied values "
            f"for {groups} groups)"
        )
    return DiscretizationRule(column=column, groups=groups, breaks=tuple(breaks))


def apply_rules(
    table: TabularDataset, rules: dict[str, DiscretizationRule]
) -> TabularDataset:
    """Replace numeric columns by their group labels ("1".."q")."""
    for name in rules:
        if name not in table.factor_names:
            raise DataError(f"missing column {name!r}")
    new_cols: dict[str, list[str]] = {}
    for name, rule in rules.items():
        raw = table.column(name)
        try:
            numeric = np.array([float(x) for x in raw])
        except ValueError as exc:
            raise DataError(f"column {name!r} is not numeric: {exc}") from None
        new_cols[name] = [str(int(g)) for g in rule.assign(numeric)]
    factors = []
    for k, row in enumerate(table.factors):
        factors.append(
            tuple(
                new_cols[name][k] if name in new_cols else row[idx]
                for idx, name in enumerate(table.factor_names)
            )
        )
    return TabularDataset(
        factor_names=table.factor_names,
        response_name=table.response_name,
        factors=tuple(factors),
        responses=table.responses,
    )


# ---------------------------------------------------------------------------
# diagnostics and dataset output

def markov_discrepancy(data: PathDataset) -> list[float]:
    """Largest absolute difference between one-step and two-step empirical
    transition probabilities, per interior column.

    Entry k (0-based) compares P(col k+3 | col k+2, col k+1) against
    P(col k+3 | col k+2) over observed histories. Purely diagnostic: a flat
    table with three or more factors need not follow the stepwise model, and
    this quantifies how far it is from doing so.
    """
    c = data.spec.c
    out = []
    for k in range(c - 2):
        a, b_col, c_col = data.paths[:, k], data.paths[:, k + 1], data.paths[:, k + 2]
        worst = 0.0
        for b_val in np.unique(b_col):
            sel_b = b_col == b_val
            cond_b = np.bincount(
                c_col[sel_b] - 1, minlength=data.spec.levels[k + 2]
            ) / sel_b.sum()
            for a_val in np.unique(a[sel_b]):
                sel_ab = sel_b & (a == a_val)
                cond_ab = np.bincount(
                    c_col[sel_ab] - 1, minlength=data.spec.levels[k + 2]
                ) / sel_ab.sum()
                worst = max(worst, float(np.abs(cond_ab - cond_b).max()))
        out.append(worst)
    return out


def write_dataset_csv(dest, spec: DagSpec, data: PathDataset, factor_names=None) -> None:
    """Write a dataset as CSV (labels plus response); responses use the
    shortest exact decimal form, so a reload reproduces them bit for bit."""
    if factor_names is None:
        factor_names = [f"factor_{j}" for j in range(1, spec.c + 1)]
    close = False
    if not hasattr(dest, "write"):
        dest = open(dest, "w", encoding="utf-8", newline="")
        close = True
    try:
        writer = csv.writer(dest, lineterminator="\n")
        writer.writerow(list(factor_names) + ["response"])
        for row, b in zip(data.paths, data.responses):
            writer.writerow(
                [spec.label(j, int(lvl)) for j, lvl in enumerate(row, start=1)]
                + [repr(float(b))]
            )
    finally:
        if close:
            dest.close()
