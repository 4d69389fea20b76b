"""daglm benchmark.

    python3 perfbench/run.py --workload csv-4x4 --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, measures it for about SECONDS
seconds, checks every output against closed forms, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The line before it holds the
raw sample quartiles and counts, the failed checks and the environment. The
exit code is 0 only when every operation and check passed. End-to-end times
are scaled to a reference speed of the host; see reference.py.

``--toy`` shrinks every workload so that the smoke test runs each of them,
with every check, in seconds. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Every child inherits one BLAS/OpenMP thread; set before numpy loads here.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from child import TRACED  # noqa: E402
from spans import Spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: fresh-interpreter set-up samples per run (median reported)
SETUP_PROBES = 3
#: ``python -X importtime`` samples per traced run (median reported)
IMPORT_PROBES = 3
#: a child still running after this long is killed and counts as failed
CHILD_TIMEOUT_S = 150.0


@dataclasses.dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: Path

    def problems(self) -> list[str]:
        if self.code == 0:
            return []
        tail = self.log.read_text(encoding="utf-8", errors="replace").strip()
        return [f"exit code {self.code}: {tail[-500:]}"]


class Runner:
    """Starts child processes in the work directory and waits for each."""

    def __init__(self, work: Path):
        self.work = work
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")}
        env |= {var: "1" for var in THREAD_VARS}
        env |= {"PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(work),
                "PYTHONHASHSEED": "0", "PYTHONNOUSERSITE": "1"}
        self.env = env

    def run(self, argv: list[str], log_name: str) -> Child:
        """Run to completion; wall time from start to reap, CPU time and
        peak RSS from the child's own resource usage."""
        log = self.work / log_name
        with log.open("w", encoding="utf-8") as out:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=out)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, log)

    def python(self, args: list[str], log_name: str) -> Child:
        return self.run([sys.executable, *args], log_name)


class Ledger:
    """Operations attempted and failed, with the problems of failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)
        return not problems


class Checker:
    """Checks one run's outputs; remembers the first CSV so later passes
    can be compared with it byte for byte."""

    def __init__(self, plan: dict, work: Path, ledger: Ledger):
        self.plan, self.work, self.ledger = plan, work, ledger
        self.model = checks.load_json(work / plan["model"])
        self.schema = ROOT / "src/daglm/schemas/report.schema.json"
        self.csv_bytes: bytes | None = None

    def csv_files(self, prefix: str, errors: dict[str, list[str]]) -> None:
        """Record the three csv-4x4 ops of one pass from their output files;
        ``errors`` holds each op's own failure (exit code or exception)."""
        work, model = self.work, self.model
        data = work / f"{prefix}data.csv"
        problems = errors["simulate"] or checks.check_csv(
            data, self.plan["n"], len(model["columns"]))
        if not problems:
            raw = data.read_bytes()
            if self.csv_bytes is None:
                self.csv_bytes = raw
            elif raw != self.csv_bytes:
                problems = ["CSV differs from the first pass's"]
        self.ledger.record("simulate", problems)
        estimate = None
        problems = errors["estimate"]
        if not problems:
            estimate = checks.load_json(work / f"{prefix}estimate.json")
            problems = checks.check_estimate(estimate, model, self.schema)
        self.ledger.record("estimate", problems)
        problems = errors["compare"]
        if not problems:
            problems = (["no estimate report to compare with"] if estimate is None else
                        checks.check_compare(checks.load_json(work / f"{prefix}compare.json"),
                                             estimate, model, self.schema))
        self.ledger.record("compare", problems)

    def child_pass(self, ops: list[dict], prefix: str) -> None:
        """Record the ops of one pass run inside a child process."""
        if self.plan["workload"] == "csv-4x4":
            self.csv_files(prefix, {op["op"]: [op["error"]] if op["error"] else []
                                    for op in ops})
            return
        for op in ops:
            if op["error"]:
                problems = [op["error"]]
            elif self.plan["workload"] == "study-2x2":
                problems = checks.check_study(op["result"], self.model,
                                              self.plan["replicates"])
            else:
                problems = {
                    "targets": checks.check_targets,
                    "closed_form": checks.check_closed_form_avs,
                    "measure_change": checks.check_measure_change,
                }[op["op"]](op["result"], self.model)
            self.ledger.record(op["op"], problems)


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def read_child_doc(child: Child, out: Path, ledger: Ledger, what: str) -> dict | None:
    problems = child.problems() or ([] if out.exists() else ["no result file"])
    if problems:
        ledger.record(what, problems)
        return None
    return checks.load_json(out)


def part_medians(passes: list[list]) -> dict[str, float]:
    """Median over passes of each part's time, scaled to the reference
    speed; ``passes`` holds each pass's ``(key, seconds, reference)`` parts."""
    by_key: dict[str, list[float]] = {}
    for parts in passes:
        for key, seconds, ref in parts:
            by_key.setdefault(key, []).append(reference.scaled_s(seconds, ref))
    return {key: statistics.median(v) for key, v in by_key.items()}


def timed_run(plan: dict, runner: Runner, checker: Checker,
              seconds: int) -> tuple[dict, dict]:
    """One run: set-up probes, each a whole process timed raw from start to
    exit, then passes in one process for about ``seconds`` seconds, each
    part of them between two reference kernel measurements (reference.py).
    Returns the end-to-end values and the raw samples behind them."""
    ledger, work = checker.ledger, runner.work
    samples: dict[str, list[float]] = {"setup_s": [], "pass_raw_s": [], "reference_s": []}
    probes = SETUP_PROBES if not plan["toy"] else 1
    for k in range(probes):
        child = runner.python([str(CHILD), "setup", "plan.json"], f"setup{k}.log")
        if ledger.record("setup", child.problems()):
            samples["setup_s"].append(child.wall_s)

    out = work / "timed.json"
    child = runner.python([str(CHILD), "passes", "plan.json", str(seconds), "1", "0",
                           "1", out.name], "timed.log")
    doc = read_child_doc(child, out, ledger, "passes")
    passes: list[list] = []  # the parts of every pass whose operations all passed
    for k, p in enumerate(doc["passes"] if doc is not None else []):
        failed_before = ledger.failed
        checker.child_pass(p["ops"], f"timed-{k}-")
        if ledger.failed == failed_before:
            passes.append(p["parts"])
            samples["pass_raw_s"].append(sum(raw for _, raw, _ in p["parts"]))
            for key, raw, ref in p["parts"]:
                samples.setdefault(f"{key.split('#')[0]}_raw_s", []).append(raw)
                samples["reference_s"].append(ref)

    values = {"peak_rss_mb": child.rss_mb}
    if samples["setup_s"]:
        values["setup_s"] = statistics.median(samples["setup_s"])
    if passes:
        values["wall_s"] = sum(part_medians(passes).values())
        values["work_per_s"] = plan["work_units"] / values["wall_s"]
    return values, samples


def import_times(runner: Runner, probes: int, ledger: Ledger) -> dict[str, list[float]]:
    """``python -X importtime -c 'import daglm'``: the whole package, and the
    self times of every scipy and numpy module it pulls in."""
    out: dict[str, list[float]] = {"import.total_s": [], "import.scipy_s": [],
                                   "import.numpy_s": []}
    for k in range(probes):
        child = runner.python(["-X", "importtime", "-c", "import daglm"],
                              f"importtime{k}.log")
        if not ledger.record("importtime", child.problems()):
            continue
        total = None
        self_us = {"scipy": 0, "numpy": 0}
        for line in child.log.read_text(encoding="utf-8").splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, name = (x.strip() for x in line[12:].split("|"))
            if not own.isdigit():
                continue  # the header line
            top = name.split(".")[0]
            if top in self_us:
                self_us[top] += int(own)
            if name == "daglm":
                total = int(cumulative)
        if total is None:
            ledger.record("importtime", ["no daglm line in -X importtime output"])
            continue
        out["import.total_s"].append(total / 1e6)
        out["import.scipy_s"].append(self_us["scipy"] / 1e6)
        out["import.numpy_s"].append(self_us["numpy"] / 1e6)
    return out


def traced_run(plan: dict, runner: Runner, checker: Checker) -> tuple[dict, dict]:
    """Per-layer values, and the import samples behind the import metrics:
    import probes, then the same passes once without and once with the span
    tracer."""
    ledger, work = checker.ledger, runner.work
    samples = import_times(runner, IMPORT_PROBES if not plan["toy"] else 1, ledger)
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    passes = str(workloads.trace_passes(plan))
    docs, children = {}, {}
    for mode, flag in (("untraced", "0"), ("traced", "1")):
        out = work / f"{mode}.json"
        children[mode] = runner.python(
            [str(CHILD), "passes", "plan.json", "0", passes, flag, "0", out.name],
            f"{mode}.log")
        docs[mode] = read_child_doc(children[mode], out, ledger, mode)
        if docs[mode] is not None:
            for k, p in enumerate(docs[mode]["passes"]):
                checker.child_pass(p["ops"], f"{mode}-{k}-")
    if docs["traced"] is None or docs["untraced"] is None:
        return values, samples

    spans = Spans(work / "traced.npz")
    counts = docs["traced"]["counts"]
    for name in sorted({entry[2] for entry in TRACED}):
        values[f"{name}.self_s"] = spans.total_self_s(name)
        values[f"{name}.calls"] = spans.calls(name)
    for name in ("tabular.rows_read", "model.enumerate_support_paths.paths",
                 "estimators.rows_scanned", "asymptotics.plugin_asym_var.raised",
                 "asymptotics.matrix_cells"):
        values[name] = counts.get(name, 0)
    cell_calls = (values["estimators.cell_estimate.calls"]
                  + values["asymptotics.plugin_asym_var.calls"])
    values["estimators.cells_per_call"] = (
        docs["traced"]["cells"] / cell_calls if cell_calls else 0.0)
    intervals = spans.child_intervals_ms("simulation.coverage_study",
                                         "simulation.sample_dataset")
    values["simulation.replicate_ms_p50"] = (
        float(np.percentile(intervals, 50)) if intervals.size else 0.0)
    values["simulation.replicate_ms_p99"] = (
        float(np.percentile(intervals, 99)) if intervals.size else 0.0)

    reports = [work / f"traced-0-{name}.json" for name in ("estimate", "compare")]
    reports = [path for path in reports if path.exists()]
    values["report.bytes_written"] = sum(path.stat().st_size for path in reports)
    values["report.flagged_rows"] = sum(
        1 for path in reports for row in checks.load_json(path)["rows"] if row["flags"])

    values["process.cpu_s"] = children["untraced"].cpu_s
    values["process.wall_s"] = children["untraced"].wall_s
    traced_wall = docs["traced"]["wall_s"]
    values["trace.wall_s"] = traced_wall
    values["trace.unattributed_s"] = traced_wall - spans.top_level_s()
    values["trace.overhead_s"] = traced_wall - docs["untraced"]["wall_s"]
    return values, samples


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes: every workload and check in seconds")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src/daglm/__init__.py").is_file():
        print(f"error: no daglm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        plan = workloads.prepare(args.workload, args.seed, args.toy, ROOT, work)
        runner = Runner(work)
        checker = Checker(plan, work, ledger)
        if args.trace:
            values, samples = traced_run(plan, runner, checker)
        else:
            values, samples = timed_run(plan, runner, checker, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = sorted(set(units) - set(values))
    if ledger.failed == 0 and missing:
        ledger.record("metrics", [f"not measured: {', '.join(missing)}"])
    extra = sorted(set(values) - set(units))
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    correct = ledger.attempted > 0 and ledger.failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "toy": args.toy,
                      "samples": {name: summary(v) for name, v in samples.items() if v},
                      "problems": ledger.problems[:20], "environment": environment()}))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
