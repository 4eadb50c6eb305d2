"""Job benchmark for `cechmv compute`.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`.  Every
sample is a fresh interpreter (`child.py`).  With `--trace 0` a run alternates
serial (`--jobs 1`) and parallel (`--jobs 2`) jobs, each after a set-up sample,
until `--seconds` is used up, and reports medians.  With `--trace 1` it
alternates untraced and traced serial jobs and reports per-layer metrics from
the traced ones.  Every job's exit code, task verdicts and (at seed 0) output
digests are checked; a job that fails or exceeds JOB_LIMIT_S counts as
failed.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ROOT as ROOT_SPAN, SpanTree

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".bench_work"

WORKLOADS = ("lattice-window", "page-heavy", "oracle-long", "wide-window")
JOB_LIMIT_S = 60.0
SETUP_LIMIT_S = 30.0
MIN_SAMPLES = 2
PAR_JOBS = 2
CHECKED_FILES = ("report.json", "cohomology.csv")

TASKS = ("cohomology", "verify34", "props2", "mvss-1a", "mvss-1b", "mvss-2a", "mvss-2b", "les")
LAYERS = ("cli", "cech", "multicomplex", "spectral", "mvss", "linalg")

END_TO_END_UNITS = {
    "job_s": "s",
    "job_cpu_s": "s",
    "job_par_s": "s",
    "par_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}


def _layer_units() -> dict[str, str]:
    units = {"cli.load_job_s": "s"}
    units.update({f"cli.task_s.{t}": "s" for t in TASKS})
    units["cli.bytes_written"] = "bytes"
    for name in ("degrees", "classes", "classify_calls", "pattern_calls", "lattice_builds",
                 "lattice_entries", "oracle_lookups", "oracle_rank_calls", "oracle_rank_cells",
                 "oracle_seq_len_max"):
        units[f"cech.{name}"] = "count"
    for name in ("classify_s", "pattern_s", "lattice_s", "oracle_s", "verify_s"):
        units[f"cech.{name}"] = "s"
    units.update({"multicomplex.split_s": "s", "multicomplex.totalize_s": "s",
                  "multicomplex.total_dim_max": "count"})
    units.update({"spectral.filtration_s": "s", "spectral.page_calls": "count",
                  "spectral.page_s": "s", "spectral.infinity_s": "s",
                  "spectral.region_audit_s": "s"})
    units.update({"mvss.variant_runs": "count", "mvss.variant_s": "s", "mvss.les_s": "s",
                  "mvss.inf_filtration_s": "s"})
    units.update({"linalg.rref_calls": "count", "linalg.rref_s": "s", "linalg.rref_cells": "count",
                  "linalg.mul_calls": "count", "linalg.mul_s": "s"})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.job_s": "s", "trace.untraced_job_s": "s", "trace.overhead_frac": "ratio",
                  "trace.uncovered_s": "s", "trace.self_sum_s": "s", "trace.spans": "count"})
    return units


PER_LAYER_UNITS = _layer_units()


# ---------------------------------------------------------------------------
# inputs


def make_job(spec: dict, seed: int) -> dict:
    """The workload's job at `seed`: seed 0 is the job as written; any other
    seed relabels the variables and reorders each group's generators by a
    seeded permutation, which keeps the amount of work the same."""
    if seed == 0:
        return spec
    rng = random.Random(seed)
    m = spec["variables"]
    perm = list(range(1, m + 1))
    rng.shuffle(perm)

    def relabel(mono: str) -> str:
        return re.sub(r"x(\d+)", lambda mt: f"x{perm[int(mt.group(1)) - 1]}", mono)

    job = dict(spec)
    groups = []
    for grp in spec["groups"]:
        grp = [relabel(g) for g in grp]
        rng.shuffle(grp)
        groups.append(grp)
    job["groups"] = groups
    if "quotient" in spec:
        job["quotient"] = [relabel(g) for g in spec["quotient"]]
    if "window" in spec:
        job["window"] = [[0] * m, [0] * m]
        for side, old in zip(job["window"], spec["window"]):
            for j, v in enumerate(old):
                side[perm[j] - 1] = v
    return job


def open_workload(name: str, seed: int) -> "Workload":
    """The named workload at `seed`; only seed 0 has recorded digests."""
    spec = json.loads((HERE / "workloads" / f"{name}.json").read_text(encoding="utf-8"))
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return Workload(name, make_job(spec, seed), recorded[name] if seed == 0 else None,
                    WORK / name)


# ---------------------------------------------------------------------------
# running and checking one sample


def run_child(args: list[str], limit: float, tmpdir: Path) -> tuple[int | None, str]:
    """Run child.py in its own session; None as exit code means it was killed
    at `limit` seconds, together with every process it started."""
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmpdir))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=CHECKOUT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=limit)
        return proc.returncode, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"exceeded the time limit of {limit:g} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass


def digests(outdir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in CHECKED_FILES
        if (outdir / name).exists()
    }


def output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


def check_output(outdir: Path, rc: int | None, tasks: set[str],
                 expected: dict[str, str] | None) -> str | None:
    """Why the run at `outdir` failed, or None if it passed.  `expected`
    holds the digests the checked files must have, if they are known."""
    if rc is None:
        return "timeout"
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return f"unreadable report.json: {e}"
    results = report.get("results", {})
    if set(results) != tasks:
        return f"report covers tasks {sorted(results)}, job asked for {sorted(tasks)}"
    for task, payload in sorted(results.items()):
        if payload.get("pass") is not True or "internal_error" in payload:
            return f"task {task} did not pass"
    if report.get("pass") is not True:
        return "report does not pass"
    if expected is not None:
        got = digests(outdir)
        for name, want in sorted(expected.items()):
            if got.get(name) != want:
                return f"{name} digest {got.get(name)} differs from {want}"
    return None


class Tally:
    """Attempted and failed job runs, with the reasons for the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)
        return reason is None


class Workload:
    """One workload's job file, work directory, expected outputs and tally."""

    def __init__(self, name: str, job: dict, expected: dict[str, str] | None, workdir: Path):
        self.name = name
        self.tasks = set(job["tasks"])
        self.dir = workdir
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.job_path = self.dir / "job.json"
        self.job_path.write_text(json.dumps(job, indent=1) + "\n", encoding="utf-8")
        self.out = self.dir / "out"
        self.result = self.dir / "result.json"
        # without recorded digests, every run must reproduce the digests of
        # the first run that passed
        self.expected = expected
        self.tally = Tally()

    def _read_result(self) -> dict:
        return json.loads(self.result.read_text(encoding="utf-8"))

    def setup_sample(self) -> float | None:
        self.result.unlink(missing_ok=True)
        rc, err = run_child(["setup", str(self.result), str(self.job_path)], SETUP_LIMIT_S, self.dir)
        if rc != 0:
            print(f"{self.name}: set-up failed: {err.strip()}", file=sys.stderr)
            return None
        return self._read_result()["setup_s"]

    def _run(self, args: list[str], check=None) -> dict | None:
        """Run one job sample and check it, also by `check()` if given; the
        child's result, or None if the run failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.result.unlink(missing_ok=True)
        rc, err = run_child(args, JOB_LIMIT_S, self.dir)
        reason = check_output(self.out, rc, self.tasks, self.expected)
        if reason is None and check is not None:
            reason = check()
        if not self.tally.record(reason):
            detail = err.strip().splitlines()[-1:] if rc else []
            print(f"{self.name}: run failed: {reason} {' '.join(detail)}", file=sys.stderr)
            return None
        if self.expected is None:
            self.expected = digests(self.out)
        res = self._read_result()
        res["output_bytes"] = output_bytes(self.out)
        return res

    def job_sample(self, jobs: int) -> dict | None:
        return self._run(["job", str(self.result), str(self.job_path), str(self.out), str(jobs)])

    def trace_sample(self) -> dict[str, float] | None:
        layers: dict[str, float] = {}

        def check_spans() -> str | None:
            spans = json.loads(Path(str(self.result) + ".spans").read_text(encoding="utf-8"))
            tree = SpanTree(spans["names"], spans["spans"])
            layers.update(layer_metrics(tree, spans["counters"], output_bytes(self.out)))
            if abs(layers["trace.self_sum_s"] - layers["trace.job_s"]) > 1e-6:
                return "span self times do not sum to the traced job time"
            return None

        if self._run(["trace", str(self.result), str(self.job_path), str(self.out)],
                     check_spans) is None:
            return None
        return layers


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(tree: SpanTree, counters: dict[str, int], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced job (`trace.untraced_job_s` and
    `trace.overhead_frac` are added by the caller)."""
    inc, cnt, own = tree.inclusive, tree.count, tree.self_sum
    roots = tree.roots()
    if len(roots) != 1 or tree.name[roots[0]] != ROOT_SPAN:
        raise ValueError(f"expected one {ROOT_SPAN} root span, got {len(roots)}")
    root = roots[0]
    m: dict[str, float] = {"cli.load_job_s": inc({"cli.load_job"})}
    for t in TASKS:
        m[f"cli.task_s.{t}"] = inc({f"cli.run_unit.{t}"})
    m["cli.bytes_written"] = out_bytes
    m["cech.degrees"] = counters.get("cech.degrees", 0)
    m["cech.classes"] = counters.get("cech.classes", 0)
    m["cech.classify_calls"] = cnt({"cech.degree_classes"})
    m["cech.pattern_calls"] = cnt({"cech.pattern"})
    m["cech.lattice_builds"] = cnt({"cech.cech_multicomplex"})
    m["cech.lattice_entries"] = counters.get("cech.lattice_entries", 0)
    m["cech.oracle_lookups"] = cnt({"cech.oracle_vectors"})
    m["cech.oracle_rank_calls"] = cnt({"cech.oracle_rank"})
    m["cech.oracle_rank_cells"] = counters.get("cech.oracle_rank_cells", 0)
    m["cech.oracle_seq_len_max"] = counters.get("cech.oracle_seq_len_max", 0)
    m["cech.classify_s"] = inc({"cech.degree_classes"})
    m["cech.pattern_s"] = inc({"cech.pattern"})
    m["cech.lattice_s"] = inc({"cech.cech_multicomplex"})
    m["cech.oracle_s"] = inc({"cech.oracle_vectors"}, exclude={"cech.pattern"})
    m["cech.verify_s"] = own({"cech.verify_product_vs_interior"})
    m["multicomplex.split_s"] = inc({"multicomplex.koszul_split", "multicomplex.cube_extension"})
    m["multicomplex.totalize_s"] = inc(
        {"multicomplex.totalize", "multicomplex.restrict", "multicomplex.augment_interior"})
    m["multicomplex.total_dim_max"] = counters.get("multicomplex.total_dim_max", 0)
    m["spectral.filtration_s"] = inc({"spectral.filtration_from_blocks"})
    m["spectral.page_calls"] = cnt({"spectral.page"})
    m["spectral.page_s"] = inc({"spectral.page"})
    m["spectral.infinity_s"] = inc({"spectral.infinity"})
    m["spectral.region_audit_s"] = inc({"spectral.region_convergence_report"})
    m["mvss.variant_runs"] = cnt({"mvss.run_variant"})
    m["mvss.variant_s"] = own({"mvss.run_variant"})
    m["mvss.les_s"] = inc({"mvss.mv_les"})
    m["mvss.inf_filtration_s"] = inc({"mvss.infinity_filtration_report"})
    m["linalg.rref_calls"] = cnt({"linalg.rref"})
    m["linalg.rref_s"] = inc({"linalg.rref"})
    m["linalg.rref_cells"] = counters.get("linalg.rref_cells", 0)
    m["linalg.mul_calls"] = cnt({"linalg.mul"})
    m["linalg.mul_s"] = inc({"linalg.mul"})
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tree.layer_self(layer)
    m["trace.job_s"] = tree.dur[root]
    m["trace.uncovered_s"] = tree.self_time[root]
    m["trace.self_sum_s"] = sum(tree.self_time)
    m["trace.spans"] = len(tree.name)
    return m


def alternate(deadline: float, samplers, minimum: int) -> list[list]:
    """Call `samplers` in turn, at least `minimum` times each, until the next
    call would likely end after `deadline`; the results that were not None."""
    results: list[list] = [[] for _ in samplers]
    last = [0.0] * len(samplers)
    calls = 0
    while True:
        i = calls % len(samplers)
        if calls >= minimum * len(samplers) and time.monotonic() + last[i] > deadline:
            return results
        start = time.monotonic()
        res = samplers[i]()
        last[i] = time.monotonic() - start
        if res is not None:
            results[i].append(res)
        calls += 1


def measure_end_to_end(w: Workload, seconds: float) -> tuple[dict[str, float], dict[str, int]]:
    """Serial and parallel jobs in turn until `seconds` are up, each after a
    set-up sample, so that set-up is sampled across the whole run."""
    setups: list[float | None] = []

    def sample(jobs: int) -> dict | None:
        setups.append(w.setup_sample())
        return w.job_sample(jobs)

    serial, par = alternate(time.monotonic() + seconds,
                            (lambda: sample(1), lambda: sample(PAR_JOBS)), MIN_SAMPLES)
    if None in setups or not serial or not par:
        return {}, {}
    metrics = {
        "job_s": statistics.median([r["wall_s"] for r in serial]),
        "job_cpu_s": statistics.median([r["cpu_s"] for r in serial]),
        "job_par_s": statistics.median([r["wall_s"] for r in par]),
        "par_cpu_s": statistics.median([r["cpu_s"] + r["children_cpu_s"] for r in par]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([r["peak_rss_kb"] / 1024 for r in serial]),
        "output_mb": statistics.median([r["output_bytes"] / 1e6 for r in serial]),
    }
    samples = {"setup_s": len(setups), "job_par_s": len(par), "par_cpu_s": len(par)}
    return metrics, {k: samples.get(k, len(serial)) for k in metrics}


def measure_layers(w: Workload, seconds: float) -> tuple[dict[str, float], dict[str, int]]:
    """Untraced and traced serial jobs in turn until `seconds` are up."""
    plain, traced = alternate(time.monotonic() + seconds, (lambda: w.job_sample(1), w.trace_sample), 1)
    if not plain or not traced:
        return {}, {}
    metrics = {k: statistics.median([t[k] for t in traced]) for k in traced[0]}
    metrics["trace.untraced_job_s"] = statistics.median([r["wall_s"] for r in plain])
    metrics["trace.overhead_frac"] = metrics["trace.job_s"] / metrics["trace.untraced_job_s"] - 1
    samples = {k: len(traced) for k in metrics}
    samples["trace.untraced_job_s"] = len(plain)
    return {k: metrics[k] for k in PER_LAYER_UNITS}, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = open_workload(name, seed)
    measure = measure_layers if trace else measure_end_to_end
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values, samples = measure(w, seconds)
    failed_frac = w.tally.failed / max(w.tally.attempted, 1)
    print(f"# {name} seed={seed} trace={int(trace)}: {w.tally.attempted} job runs, "
          f"{w.tally.failed} failed (failed_frac {failed_frac:.4f})")
    for key in units:
        if key in values:
            print(f"#   {key:28s} {values[key]:14.6f} {units[key]:6s} n={samples[key]}")
    return {
        "correct": bool(values) and w.tally.failed == 0,
        "attempted": w.tally.attempted,
        "failed": w.tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cechmv" / "cli.py").is_file():
        print(f"error: no cechmv sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # an untimed import compiles the sources and warms the file cache
    warm = open_workload(names[0], args.seed)
    if warm.setup_sample() is None:
        return 2
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
