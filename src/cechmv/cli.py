"""Command-line front end.

Two commands:

* ``compute <job.json>`` reads a job description, runs the requested tasks
  over the job's degree window, writes ``cohomology.csv``,
  ``pages_<variant>.json`` and an aggregate ``report.json`` to the output
  directory, and prints a one-line summary per task.  Exit code 0 means all
  verifications passed, 1 means the input or the command line was rejected
  or an output file could not be written, 2 means some verification failed.

  ``compute`` is the one driver of a whole window, for the command and the
  library alike: the first class of each orbit of degree classes
  (``cech.class_orbits``) runs the class step of every task (``run_unit``,
  which calls ``cech.verify_product_vs_interior``, ``mvss.run_variant``,
  ``mvss.infinity_filtration_report`` and ``mvss.mv_les``) at its
  representative degree b0 for the whole orbit, and ``--jobs`` spreads the
  orbits over worker processes.  A class step reads two things: its
  class's ``LatticeSequences`` (``DegreeClass.sequences``), built from the
  pattern ``cech.degree_classes`` found, and the oracle at b0.  Its result
  names no degree; ``assemble_unit``, the one place where class results
  meet member lists, lists them under the member degrees, in class order,
  and ``jsonout.dumps`` writes each class's record once.
* ``selftest`` runs ``compute`` with every task the problem admits on small
  random problems and checks that every task passes.  Deterministic for a
  fixed seed.

Report files contain no timestamps or absolute paths, so identical inputs
produce byte-identical outputs regardless of worker count.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .cech import (CechProblem, CohomologyTable, OracleCache, cech_multicomplex, class_orbits,
                   degree_classes, verify_product_vs_interior)
from .errors import ContractError, InputError, InternalCheckError
from .grading import Exps, MonomialIdeal, product_sequence
from .jsonout import PerDegree, dumps, plain
from .linalg import DEFAULT_PRIME, PrimeField, RationalField
from .multicomplex import validate
from .mvss import FILTRATION, infinity_filtration_report, mv_les, run_variant
from .spectral import LatticeSequences, region_convergence_report

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
    problem = CechProblem.from_text(field, m, groups, quo, window)
    tasks, pages = check_tasks(problem, raw["tasks"]), raw.get("pages")
    check_pages(problem, pages)
    return problem, tasks, pages


def check_tasks(problem: CechProblem, tasks: list[str]) -> list[str]:
    """The tasks to run on ``problem``, each once, in ``TASK_ORDER``; refuses
    anything but a nonempty list of task names, an unknown task, and ``les``
    unless there are exactly two groups."""
    if not isinstance(tasks, list) or not tasks or not all(isinstance(t, str) for t in tasks):
        raise InputError("tasks must be a nonempty list of task names")
    for t in tasks:
        if t not in TASK_ORDER:
            raise InputError(f"unknown task {t!r}; choose from {', '.join(TASK_ORDER)}")
    if "les" in tasks and problem.n != 2:
        raise InputError("task 'les' needs exactly two generator groups")
    return [t for t in TASK_ORDER if t in tasks]


def check_pages(problem: CechProblem, pages: int | None) -> None:
    """Refuses a ``pages`` below 0 or past n + 2 for n groups: every
    filtration is at most n + 1 wide, so no page after n + 1 changes, and a
    default run writes pages up to n + 2 at most."""
    top = problem.n + 2
    if pages is not None and (type(pages) is not int or pages < 0):  # bool is not an int here
        raise InputError(f"pages must be a nonnegative integer, got {pages!r}")
    if pages is not None and pages > top:
        raise InputError(f"pages must be at most {top}, n + 2 for n = {problem.n} generator "
                         f"groups (no page after {top - 1} changes), got {pages}")


class DegreeClass:
    """One degree class as its class steps see it: its piece pattern, its
    representative degree b0, an oracle cache, and the ``LatticeSequences``
    of the lattice built from the pattern (on first use, so every task of the
    class reads its one Koszul split, filtered complexes and sequences)."""

    def __init__(self, problem: CechProblem, pattern: tuple[int, ...], b0: Exps):
        self.problem = problem
        self.pattern = pattern
        self.b0 = b0
        self.cache = OracleCache(problem)

    @functools.cached_property
    def sequences(self) -> LatticeSequences:
        return LatticeSequences(cech_multicomplex(self.problem, self.pattern))


def run_unit(klass: DegreeClass, unit: str, pages: int | None):
    """Class step of one task for one degree class: a small picklable result,
    naming no degree, that ``assemble_unit`` combines over all classes.
    An ``mvss:`` step returns (run, report): the report is variant 1a's
    ``infinity_filtration_report`` when there are three groups, else None.
    ``les`` reads the first pages of the class's 1a and 2a sequences."""
    problem, cache, b0 = klass.problem, klass.cache, klass.b0
    if unit == "cohomology":  # the one step that builds no lattice
        return cache.column("product", tuple(range(problem.n)), "full", b0)
    seqs = klass.sequences
    if unit == "verify34":
        return verify_product_vs_interior(problem, seqs, cache, b0)
    if unit == "props2":
        bad = validate(seqs.mc)
        if seqs.mc.dims:
            bad.extend(region_convergence_report(seqs))
        return [{"message": msg} for msg in bad]
    if unit.startswith("mvss:"):
        variant = unit.split(":", 1)[1]
        run = run_variant(problem, variant, seqs, cache, b0, pages_r=pages)
        if variant == "1a" and problem.n == 3:
            return run, infinity_filtration_report(seqs.sequence(FILTRATION["1a"]), cache, b0)
        return run, None
    if unit == "les":
        return mv_les(seqs.sequence(FILTRATION["1a"]).page(1),
                      seqs.sequence(FILTRATION["2a"]).page(1), cache, b0)
    raise InputError(f"unknown task {unit!r}")


def _failures(results: list[tuple[list[Exps], dict]]) -> PerDegree:
    """The member degrees of the failing classes, each with its class's
    ``les`` or ``infinity_filtration_report`` record, sorted by degree."""
    return PerDegree.by_degree([(members, rec) for members, rec in results if not rec["pass"]])


def assemble_unit(problem: CechProblem, unit: str, pages: int | None,
                  results: list[tuple[list[Exps], object]]) -> tuple[dict, dict[str, str]]:
    """A task's report payload and files from (members, class step result)
    for every class, in class order: the one place where class results meet
    member degrees.  The classes of one orbit share one result object, which
    is read, never changed."""
    degrees = sum(len(members) for members, _ in results)
    if unit == "cohomology":
        table = CohomologyTable(problem.num_vars, len(product_sequence(problem.groups)),
                                problem.window, "h", results)
        payload = {
            "pass": True,
            "file": "cohomology.csv",
            "nonzero_entries": sum(len(members) for members, col in results
                                   for h in col.values() if h),
            "table": table.to_json(),
        }
        return payload, {"cohomology.csv": table.to_csv()}
    if unit in ("verify34", "props2"):
        issues = PerDegree("degree", [(b, issue) for members, class_issues in results
                                      for issue in class_issues for b in members])
        key = "mismatches" if unit == "verify34" else "violations"
        return {"degrees_checked": degrees, key: issues, "pass": not issues.items}, {}
    if unit.startswith("mvss:"):
        variant = unit.split(":", 1)[1]
        failures = [{"variant": variant, "degree": list(b), "kind": kind, **mm}
                    for members, (cls, _inf) in results for b in members
                    for kind, mms in (("e1", cls.e1_mismatches),
                                      ("abutment", cls.abutment_mismatches))
                    for mm in mms]
        status = f"FAIL ({len(failures)} mismatches)" if failures else "pass"
        payload = {
            "pass": not failures,
            "summary": f"variant {variant}: {degrees} degrees in {len(results)} classes, {status}",
            "failures": failures,
            "classes": len(results),
            "stabilized_at": sorted({cls.stabilized_at for _m, (cls, _inf) in results
                                     if cls.stabilized_at is not None}),
            "file": f"pages_{variant}.json",
        }
        inf = [(members, rep) for members, (_cls, rep) in results if rep is not None]
        if inf:  # run_unit returned limit-filtration reports
            bad = _failures(inf)
            payload["infinity_filtration"] = {"variant": "1a", "degrees": PerDegree.by_degree(inf),
                                              "failures": bad, "pass": not bad.items}
            payload["pass"] = payload["pass"] and not bad.items
        records = PerDegree.by_degree([(members, {
            "variant": variant,
            "pages": [pg.to_json() for pg in cls.pages if pages is None or pg.r <= pages],
            "stabilized_at": cls.stabilized_at,
            "e1_check": {"pass": not cls.e1_mismatches, "mismatches": cls.e1_mismatches},
            "abutment_check": {"pass": not cls.abutment_mismatches,
                               "mismatches": cls.abutment_mismatches},
        }) for members, (cls, _inf) in results])
        return payload, {f"pages_{variant}.json": dumps({"variant": variant,
                                                         "degrees": records})}
    failures = _failures(results)  # the one task left is les
    nontrivial = [
        (members, {"ranks": {k: {i: v for i, v in vv.items() if v}
                             for k, vv in rec["ranks"].items()}})
        for members, rec in results
        if any(v for vv in rec["dims"].values() for v in vv.values())
    ]
    slim = {
        "pass": not failures.items,
        "failures": failures,
        "degrees_checked": degrees,
        "nontrivial_degrees": PerDegree.by_degree(nontrivial),
    }
    return slim, {}


def _class_worker(args) -> list:
    """Every task's class step for one degree class, in task order; a failing
    step, or one that runs out of memory, yields its error and the other
    tasks still run."""
    problem, tasks, pages, pattern, b0 = args
    klass = DegreeClass(problem, pattern, b0)
    out = []
    for unit in tasks:
        try:
            out.append(run_unit(klass, unit, pages))
        except (ContractError, InternalCheckError) as e:
            out.append(type(e)(str(e)))  # a copy holds no frames of the class step
        except MemoryError as e:
            # a plain copy, not type(e)(str(e)): a subclass's constructor may
            # take other arguments, as numpy's (shape, dtype) does
            out.append(MemoryError(str(e)))
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (under ``taskset -c 0``, one), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def compute(problem: CechProblem, tasks: list[str], pages: int | None = None,
            jobs: int = 1) -> tuple[dict, dict[str, str]]:
    """Run ``tasks`` over the window of ``problem``: classify the window once,
    run the class step of every task once per orbit of degree classes
    (``cech.class_orbits``), at the orbit's first class, in at most ``jobs``
    worker processes and never more than the orbits or the CPUs, give every
    class its orbit's step results, and assemble each task over the classes.
    Returns the report and the contents of every output file by name,
    ``report.json`` among them.  Refuses what ``check_tasks`` and
    ``check_pages`` refuse with ``InputError``."""
    tasks = check_tasks(problem, tasks)
    check_pages(problem, pages)
    by_pattern = degree_classes(problem)
    classes = [members for _pat, members in by_pattern]
    orbit = class_orbits(problem, [pat for pat, _members in by_pattern])
    reps = sorted(set(orbit))
    work = [(problem, tasks, pages, by_pattern[r][0], classes[r][0]) for r in reps]
    workers = min(jobs, len(work), _usable_cpus())
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rep_steps = pool.map(_class_worker, work, chunksize=1)
    else:
        rep_steps = [_class_worker(w) for w in work]
    step_of = dict(zip(reps, rep_steps))
    steps = [step_of[r] for r in orbit]
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
        problem, tasks, pages = load_job(args.job)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            raise InputError(f"cannot create output directory: {e}") from None
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report, files = compute(problem, tasks, pages, args.jobs or _usable_cpus())
    for name, content in sorted(files.items()):
        try:
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as e:
            print(f"error: cannot write {name}: {e}", file=sys.stderr)
            return 1
    for unit, payload in report["results"].items():
        status = "pass" if payload.get("pass", True) else "FAIL"
        extra = payload.get("summary", "")
        print(f"{unit}: {status}" + (f"  {extra}" if extra else ""))
    print(f"wrote {', '.join(sorted(files))} to {args.out}")
    return 0 if report["pass"] else 2


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    for flag, value, least in (("--seed", args.seed, 0), ("--max-vars", args.max_vars, 1),
                               ("--max-groups", args.max_groups, 1)):
        if value < least:
            print(f"error: {flag} must be an integer >= {least}, got {value}", file=sys.stderr)
            return 1
    rng = random.Random(args.seed)
    f = PrimeField(DEFAULT_PRIME)
    failures: list[str] = []
    for trial in range(5):
        m = rng.randint(1, args.max_vars)
        n = rng.randint(1, args.max_groups)
        groups = []
        for _ in range(n):
            grp = []
            for _ in range(rng.randint(1, 2)):
                g = tuple(rng.randrange(3) for _ in range(m))
                grp.append(g if any(g) else tuple([1] + [0] * (m - 1)))
            groups.append(tuple(grp))
        quotient = MonomialIdeal(m, ())
        prob = CechProblem(f, m, tuple(groups), quotient, ((-2,) * m, (2,) * m))
        report, _files = compute(prob, [t for t in TASK_ORDER if t != "les" or n == 2])
        for unit, res in plain(report["results"]).items():
            if not res["pass"]:
                issues = (res.get("mismatches") or res.get("violations") or res.get("failures")
                          or res.get("infinity_filtration", {}).get("failures")
                          or [res.get("internal_error")])
                failures.append(f"problem trial {trial} {unit}: {issues[:2]}")

    if failures:
        print(f"selftest FAILED ({len(failures)} problems):")
        for msg in failures[:20]:
            print(f"  {msg}")
        return 2
    print("selftest passed: end-to-end problems")
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
    pc.add_argument("--jobs", type=int, default=0, help="worker processes (default: usable CPUs)")
    pc.set_defaults(func=cmd_compute)
    ps = sub.add_parser("selftest", help="run compute on small random problems")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--max-vars", type=int, default=3)
    ps.add_argument("--max-groups", type=int, default=3)
    ps.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error; 2 means a failed verification
        return 1 if e.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
