"""Command-line front end.

Two commands:

* ``compute <job.json>`` reads a job description, runs the requested tasks
  over the job's degree window, writes ``cohomology.csv``,
  ``pages_<variant>.json`` and an aggregate ``report.json`` to the output
  directory, and prints a one-line summary per task.  Exit code 0 means all
  verifications passed, 1 means the input was rejected, 2 means some
  verification failed.

  ``compute`` is the one driver of a whole window, for the command and the
  library alike: each degree class runs the class step of every task
  (``run_unit``, which calls ``cech.verify_product_vs_interior``,
  ``mvss.run_variant``, ``mvss.infinity_filtration_report`` and
  ``mvss.mv_les``), and ``--jobs`` spreads the classes over worker
  processes; ``assemble_unit`` lists the class results under the member
  degrees, in class order, and ``jsonout.dumps`` writes each class's record
  once.
* ``selftest`` runs the randomized structural property suites on generated
  multicomplexes and small problems.  Deterministic for a fixed seed.

Report files contain no timestamps or absolute paths, so identical inputs
produce byte-identical outputs regardless of worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .cech import (CechProblem, CohomologyTable, OracleCache, cech_multicomplex, degree_classes,
                   issue_report, verify_product_vs_interior)
from .errors import ContractError, InputError, InternalCheckError
from .grading import Exps, MonomialIdeal, product_sequence
from .jsonout import PerDegree, dumps, plain
from .linalg import DEFAULT_PRIME, PrimeField, RationalField, mul
from .multicomplex import (
    CochainComplex,
    koszul_complex,
    sign_twist,
    tensor_product,
    totalize,
    validate,
)
from .mvss import (FILTRATION, ClassRun, MvssRun, degree_records, infinity_filtration_report,
                   mv_les, run_variant)
from .spectral import LatticeSequences, region_convergence_report, split_column_report

TASK_ORDER = ("cohomology", "verify34", "props2", "mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b", "les")


def _parse_field(obj) -> PrimeField | RationalField:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError('field must be {"prime": p} or {"rational": true}')
    if "prime" in obj:
        p = obj["prime"]
        if type(p) is not int or p < 2:  # bool is not an integer here
            raise InputError(f"modulus must be an integer >= 2, got {p!r}")
        return PrimeField(p)
    if "rational" in obj:
        if obj["rational"] is not True:
            raise InputError('field: "rational" must be true')
        return RationalField()
    raise InputError(f"unknown field description {obj!r}")


def load_job(path: str) -> tuple[CechProblem, list[str], int | None]:
    """Parse and validate a job file; returns (problem, tasks, pages)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read job file: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"job file is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise InputError("job file must contain a JSON object")
    allowed = {"field", "variables", "quotient", "groups", "window", "tasks", "pages"}
    for key in raw:
        if key not in allowed:
            raise InputError(f"unknown job field {key!r}")
    for key in ("field", "variables", "groups", "tasks"):
        if key not in raw:
            raise InputError(f"missing job field {key!r}")
    field = _parse_field(raw["field"])
    m = raw["variables"]
    if type(m) is not int or m < 1:
        raise InputError(f"variables must be a positive integer, got {m!r}")
    quo = raw.get("quotient", [])
    if not isinstance(quo, list) or not all(isinstance(t, str) for t in quo):
        raise InputError("quotient must be a list of monomial strings")
    groups = raw["groups"]
    if (
        not isinstance(groups, list)
        or not groups
        or not all(isinstance(g, list) and g and all(isinstance(t, str) for t in g) for g in groups)
    ):
        raise InputError("groups must be a nonempty list of nonempty monomial lists")
    window = None
    if "window" in raw:
        w = raw["window"]
        if (
            not isinstance(w, list)
            or len(w) != 2
            or not all(isinstance(side, list) and len(side) == m for side in w)
            or not all(type(x) is int for side in w for x in side)
        ):
            raise InputError(f"window must be [[lo_1..lo_{m}], [hi_1..hi_{m}]]")
        window = (tuple(w[0]), tuple(w[1]))
    tasks = raw["tasks"]
    if not isinstance(tasks, list) or not tasks or not all(isinstance(t, str) for t in tasks):
        raise InputError("tasks must be a nonempty list of task names")
    pages = raw.get("pages")
    if pages is not None and (type(pages) is not int or pages < 0):
        raise InputError(f"pages must be a nonnegative integer, got {pages!r}")
    problem = CechProblem.from_text(field, m, groups, quo, window)
    return problem, check_tasks(problem, tasks), pages


def check_tasks(problem: CechProblem, tasks: list[str]) -> list[str]:
    """The tasks to run on ``problem``, each once, in ``TASK_ORDER``; refuses
    an unknown task, and ``les`` unless there are exactly two groups."""
    for t in tasks:
        if t not in TASK_ORDER:
            raise InputError(f"unknown task {t!r}; choose from {', '.join(TASK_ORDER)}")
    if "les" in tasks and problem.n != 2:
        raise InputError("task 'les' needs exactly two generator groups")
    return [t for t in TASK_ORDER if t in tasks]


class DegreeClass:
    """One degree class as its class steps see it: members, oracle cache, the
    ``LatticeSequences`` of the lattice at members[0] (built on first use, so
    verify34, props2 and the variants share its one Koszul split, filtered
    complexes, spectral sequences and region complexes), and the variants'
    runs so far."""

    def __init__(self, problem: CechProblem, members: list[Exps]):
        self.problem = problem
        self.members = members
        self.cache = OracleCache(problem)
        self.runs: dict[str, ClassRun] = {}

    @functools.cached_property
    def sequences(self) -> LatticeSequences:
        return LatticeSequences(cech_multicomplex(self.problem, self.members[0]))

    def run(self, variant: str, pages: int | None) -> ClassRun:
        if variant not in self.runs:
            self.runs[variant] = run_variant(self.problem, variant, self.sequences,
                                             self.cache, self.members, pages_r=pages)
        return self.runs[variant]


def run_unit(klass: DegreeClass, unit: str, pages: int | None):
    """Class step of one task for one degree class: a small picklable result
    that ``assemble_unit`` combines over all classes.  ``les`` reuses the
    class's 1a and 2a runs."""
    problem, cache, b0 = klass.problem, klass.cache, klass.members[0]
    if unit == "cohomology":
        return cache.column("product", tuple(range(problem.n)), "full", b0)
    if unit == "verify34":
        return verify_product_vs_interior(problem, klass.sequences, cache, b0)
    if unit == "props2":
        mc = klass.sequences.mc
        bad = validate(mc)
        if mc.dims:
            bad.extend(region_convergence_report(mc, klass.sequences))
        return [{"message": msg} for msg in bad]
    if unit.startswith("mvss:"):
        variant = unit.split(":", 1)[1]
        run = klass.run(variant, pages)
        if variant == "1a" and problem.n == 3:
            fc = klass.sequences.filtered(FILTRATION["1a"])
            return run, infinity_filtration_report(run, fc, cache)
        return run, None
    if unit == "les":
        return mv_les(klass.run("1a", None), klass.run("2a", None), cache)
    raise InputError(f"unknown task {unit!r}")


def assemble_unit(problem: CechProblem, unit: str, pages: int | None,
                  results: list[tuple[list[Exps], object]]) -> tuple[dict, dict[str, str]]:
    """A task's report payload and files from (members, class step result)
    for every class, in class order."""
    if unit == "cohomology":
        length = len(product_sequence(problem.groups))
        table = CohomologyTable.from_columns(problem, length, "full", results)
        payload = {
            "pass": True,
            "file": "cohomology.csv",
            "nonzero_entries": sum(1 for v in table.dims.values() if v),
            "table": table.to_json(),
        }
        return payload, {"cohomology.csv": table.to_csv()}
    if unit in ("verify34", "props2"):
        return issue_report(results, "mismatches" if unit == "verify34" else "violations"), {}
    if unit.startswith("mvss:"):
        variant = unit.split(":", 1)[1]
        run = MvssRun(problem, variant, [
            dataclasses.replace(cls, pages=[p for p in cls.pages if pages is None or p.r <= pages])
            for _members, (cls, _inf) in results
        ])
        payload = {
            "pass": run.ok,
            "summary": run.summary_text(),
            "failures": run.failures,
            "classes": len(run.classes),
            "stabilized_at": sorted(
                {c.stabilized_at for c in run.classes if c.stabilized_at is not None}
            ),
            "file": f"pages_{variant}.json",
        }
        if variant == "1a" and problem.n == 3:
            payload["infinity_filtration"] = {
                "variant": "1a", **degree_records([(m, inf) for m, (_cls, inf) in results])}
            payload["pass"] = payload["pass"] and payload["infinity_filtration"]["pass"]
        return payload, {f"pages_{variant}.json": dumps({"variant": variant,
                                                         "degrees": run.degrees()})}
    rep = degree_records(results)  # the one task left is les
    nontrivial = [
        (members, {"ranks": {k: {i: v for i, v in vv.items() if v}
                             for k, vv in rec["ranks"].items()}})
        for members, rec in results
        if any(v for vv in rec["dims"].values() for v in vv.values())
    ]
    slim = {
        "pass": rep["pass"],
        "failures": rep["failures"],
        "degrees_checked": len(rep["degrees"].items),
        "nontrivial_degrees": PerDegree.by_degree(nontrivial),
    }
    return slim, {}


def _class_worker(args) -> list:
    """Every task's class step for one degree class, in task order; a failing
    step yields its error and the other tasks still run."""
    problem, tasks, pages, members = args
    klass = DegreeClass(problem, members)
    out = []
    for unit in tasks:
        try:
            out.append(run_unit(klass, unit, pages))
        except (ContractError, InternalCheckError) as e:
            out.append(type(e)(str(e)))  # a copy holds no frames of the class step
    return out


def compute(problem: CechProblem, tasks: list[str], pages: int | None = None,
            jobs: int = 1) -> tuple[dict, dict[str, str]]:
    """Run ``tasks`` over the window of ``problem``: classify the window once,
    run the class step of every task per degree class, in ``jobs`` worker
    processes, and assemble each task over the classes.  Returns the report
    and the contents of every output file by name, ``report.json`` among
    them."""
    tasks = check_tasks(problem, tasks)
    classes = [members for _pat, members in degree_classes(problem)]
    work = [(problem, tasks, pages, members) for members in classes]
    if jobs > 1 and len(work) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, len(work))) as pool:
            steps = pool.map(_class_worker, work, chunksize=1)
    else:
        steps = [_class_worker(w) for w in work]
    files: dict[str, str] = {}
    report = {
        "job": {
            "field": {"prime": problem.field.p} if isinstance(problem.field, PrimeField) else {"rational": True},
            "variables": problem.num_vars,
            "groups": [[list(g) for g in grp] for grp in problem.groups],
            "quotient": [list(g) for g in problem.quotient.gens],
            "window": [list(problem.window[0]), list(problem.window[1])],
            "tasks": tasks,
            "pages": pages,
        },
        "results": {},
    }
    ok = True
    for k, unit in enumerate(tasks):
        results = [(members, step[k]) for members, step in zip(classes, steps)]
        failed = next(((m[0], r) for m, r in results if isinstance(r, Exception)), None)
        if failed is None:
            payload, unit_files = assemble_unit(problem, unit, pages, results)
        else:
            b0, err = failed
            payload = {"pass": False, "internal_error": {"degree": list(b0), "message": str(err)}}
            unit_files = {}
        report["results"][unit] = payload
        files.update(unit_files)
        ok = ok and payload.get("pass", True)
    report["pass"] = ok
    files["report.json"] = dumps(report)
    return report, files


def cmd_compute(args) -> int:
    try:
        if args.jobs < 0:
            raise InputError(f"--jobs must be a nonnegative integer, got {args.jobs}")
        if args.pages is not None and args.pages < 0:
            raise InputError(f"--pages must be a nonnegative integer, got {args.pages}")
        problem, tasks, job_pages = load_job(args.job)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            raise InputError(f"cannot create output directory: {e}") from None
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    pages = args.pages if args.pages is not None else job_pages
    report, files = compute(problem, tasks, pages, args.jobs or os.cpu_count() or 1)
    for name, content in sorted(files.items()):
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    for unit, payload in report["results"].items():
        status = "pass" if payload.get("pass", True) else "FAIL"
        extra = payload.get("summary", "")
        print(f"{unit}: {status}" + (f"  {extra}" if extra else ""))
    print(f"wrote {', '.join(sorted(files))} to {args.out}")
    return 0 if report["pass"] else 2


# ---------------------------------------------------------------------------
# selftest


def _random_complex(f, rng, max_len=3, max_dim=3) -> CochainComplex:
    length = int(rng.integers(1, max_len + 1))
    dims = {}
    start = int(rng.integers(0, 2))
    for t in range(start, start + length):
        d = int(rng.integers(0, max_dim + 1))
        if d:
            dims[t] = d
    if not dims:
        dims = {0: 1}
    d = {}
    for t in sorted(dims):
        if t + 1 in dims:
            d[t] = f.array(rng.integers(0, 5, size=(dims[t + 1], dims[t])).tolist())
    # square-zero by construction: zero out a map whenever it composes badly
    for t in sorted(d):
        if t + 1 in d and np.any(mul(f, d[t + 1], d[t])):
            d[t + 1] = f.array(np.zeros_like(d[t + 1], dtype=int).tolist())
    return CochainComplex(f, dims, d)


def _random_tensor_mc(f, rng, max_axes: int):
    n = int(rng.integers(1, max_axes + 1))
    factors = [_random_complex(f, rng) for _ in range(n)]
    mc = tensor_product(factors)
    if rng.integers(0, 2):
        mc = sign_twist(mc)
    return mc


def cmd_selftest(args) -> int:
    for flag, value, least in (("--seed", args.seed, 0), ("--max-vars", args.max_vars, 1),
                               ("--max-groups", args.max_groups, 1)):
        if value < least:
            print(f"error: {flag} must be an integer >= {least}, got {value}", file=sys.stderr)
            return 1
    rng = np.random.default_rng(args.seed)
    f = PrimeField(DEFAULT_PRIME)
    failures: list[str] = []

    if args.corrupt_signs:
        cx = koszul_complex(f, 2, 1)
        mc = tensor_product([cx, cx])
        key = ((0, 0), 0)
        mat = mc.diffs[key].copy()
        r, c = (int(x) for x in np.argwhere(mat != 0)[0])
        mat[r, c] = -mat[r, c]
        mc.diffs[key] = f.normalize(mat)
        bad = validate(mc)
        if bad:
            print("sign corruption detected:")
            for msg in bad:
                print(f"  d o d != 0: {msg}")
            return 2
        print("corruption not detected")
        return 2

    # suite 1: scaffold exactness
    for n in range(1, max(2, args.max_groups) + 1):
        for dim in (1, 2):
            cx = koszul_complex(f, n, dim)
            cx.check_complex()
            h = cx.cohomology_dims()
            if h:
                failures.append(f"scaffold n={n} dim={dim} not exact: {h}")

    # suite 2: sign-twist involution and totalization invariance
    for trial in range(30):
        mc = _random_tensor_mc(f, rng, args.max_vars)
        tw = sign_twist(mc)
        back = sign_twist(tw)
        for key, mat in mc.diffs.items():
            if np.any(back.diffs[key] != mat):
                failures.append(f"twist not involutive at {key} (trial {trial})")
                break
        if totalize(mc).cohomology_dims() != totalize(tw).cohomology_dims():
            failures.append(f"totalization dims changed under twist (trial {trial})")

    # suite 3: split-column collapse on random lattices
    for trial in range(20):
        mc = _random_tensor_mc(f, rng, args.max_vars)
        for msg in split_column_report(mc, LatticeSequences(mc).split):
            failures.append(f"trial {trial}: {msg}")

    # suite 4: page-one and abutment accounting for the four region sequences
    for trial in range(12):
        mc = _random_tensor_mc(f, rng, min(args.max_vars, 3))
        for msg in region_convergence_report(mc):
            failures.append(f"trial {trial}: {msg}")

    # suite 5: small random problems end to end
    for trial in range(5):
        m = int(rng.integers(1, args.max_vars + 1))
        n = int(rng.integers(1, args.max_groups + 1))
        groups = []
        for _ in range(n):
            grp = []
            for _ in range(int(rng.integers(1, 3))):
                g = tuple(int(x) for x in rng.integers(0, 3, size=m))
                grp.append(g if any(g) else tuple([1] + [0] * (m - 1)))
            groups.append(tuple(grp))
        quotient = MonomialIdeal(m, ())
        prob = CechProblem(f, m, tuple(groups), quotient, ((-2,) * m, (2,) * m))
        report, _files = compute(prob, ["verify34", "mvss:2a"])
        for unit, res in plain(report["results"]).items():
            if not res["pass"]:
                issues = res.get("mismatches") or res.get("failures") or [res.get("internal_error")]
                failures.append(f"problem trial {trial} {unit}: {issues[:2]}")

    if failures:
        print(f"selftest FAILED ({len(failures)} problems):")
        for msg in failures[:20]:
            print(f"  {msg}")
        return 2
    print("selftest passed: scaffold exactness, twist involution, split collapse, "
          "region accounting, end-to-end problems")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cechmv",
        description="Multigraded Čech lattices, their spectral sequences, and oracle audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pc = sub.add_parser("compute", help="run the tasks of a JSON job file")
    pc.add_argument("job", help="path to the job file")
    pc.add_argument("--out", default=".", help="output directory (default: current)")
    pc.add_argument("--jobs", type=int, default=0, help="worker processes (default: cpu count)")
    pc.add_argument("--pages", type=int, default=None, help="highest page to include in dumps")
    pc.set_defaults(func=cmd_compute)
    ps = sub.add_parser("selftest", help="run the randomized property suites")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--max-vars", type=int, default=3)
    ps.add_argument("--max-groups", type=int, default=3)
    ps.add_argument("--corrupt-signs", action="store_true", help=argparse.SUPPRESS)
    ps.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
