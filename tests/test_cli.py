"""Command line front end: job parsing, outputs, exit codes, determinism."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechmv import (CechProblem, InternalCheckError, MonomialIdeal, PrimeField, Region,
                    SpectralSequence, cech, cli, multicomplex, mvss, spectral)
from cechmv.cli import main
from cechmv.jsonout import PerDegree, dumps, plain
from cechmv.mvss import ClassRun, MvssRun
from cechmv.spectral import Page

JOBS_DIR = Path(__file__).resolve().parent.parent / "jobs"

# sha256 of every file the example jobs write, recorded before compute was
# restructured around degree classes
EXAMPLE_DIGESTS = {
    "mixed_quotient": {
        "cohomology.csv": "99354f6495356f360d479e513ef05247152496a88de5c140e4cd3304eb85b3b7",
        "pages_2b.json": "5f1b611f4643ff6998d370f21a1f940bb4620d446de08c8b3d056ce26afbb867",
        "report.json": "4a8dfdfe0a355f798c54bb1492a8a50fad2bde1f7661a2d2909fcd4383c2132f",
    },
    "three_ideals": {
        "cohomology.csv": "f7bffc285c94bb3ed02e823e149c1ca7ac4b1dcfc40c0684b384e5326de96793",
        "pages_1a.json": "a38ef0c4e03c8297540a2ea37c5f2ea0900aea670ce4e72ea0503912ddcfa6fa",
        "pages_2a.json": "c170334b5de1b4f735e66e56fd5e1643e46a7b6e391fcd0173c146272f02f1f7",
        "report.json": "6f7d57aa075374a92244d436193bf8edd11a51849854633a53c285b2a715c3bd",
    },
    "two_ideals": {
        "cohomology.csv": "4faa1659f6bfb17453e42444eb8d25a126edb755880ecec3c6f232104b5798d9",
        "pages_1a.json": "2739f310a2579fc7f373fff672ebd70f2350befb6c5e6359a0767c73654d063a",
        "pages_1b.json": "21e2a82472ca33b12ec7d27718bf7da06e98b182bb3b1114524662fe08355f13",
        "pages_2a.json": "5b65e994a588caf6da4dcdccdcc98bdcbde86489b9d637ca3b553db03977cfa2",
        "pages_2b.json": "f0c47e10f6d3699b7252800b18e03e40e862eacf76087c7056fcdaa03ffdefc4",
        "report.json": "bc6b3928bc6fd74ef17193564e09a45f2f32c81dd535da1ab5890c7c9fdcc5a4",
    },
}

BASE_JOB = {
    "field": {"prime": 65537},
    "variables": 2,
    "quotient": [],
    "groups": [["x1"], ["x2"]],
    "window": [[-1, -1], [1, 1]],
    "tasks": ["cohomology", "verify34", "mvss:1a", "mvss:2a", "les", "props2"],
}


def write_job(tmp_path, body, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_compute_full_job(tmp_path, capsys):
    job = write_job(tmp_path, BASE_JOB)
    out = tmp_path / "out"
    assert main(["compute", job, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    for unit in BASE_JOB["tasks"]:
        assert f"{unit}: pass" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert set(report["results"]) == set(BASE_JOB["tasks"])
    assert report["job"]["window"] == [[-1, -1], [1, 1]]
    csv = (out / "cohomology.csv").read_text()
    assert csv.splitlines()[0] == "i,b1,b2,dim"
    # product sequence (x1*x2): slot-1 class at (-1,-1)
    assert "1,-1,-1,1" in csv.splitlines()
    pages = json.loads((out / "pages_1a.json").read_text())
    assert pages["variant"] == "1a" and len(pages["degrees"]) == 9


def test_compute_is_deterministic_across_runs_and_workers(tmp_path):
    job = write_job(tmp_path, BASE_JOB)
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        assert main(["compute", job, "--out", str(out), "--jobs", jobs]) == 0
        outs.append(out)
    names = ["report.json", "cohomology.csv", "pages_1a.json", "pages_2a.json"]
    for name in names:
        blobs = {(o / name).read_bytes() for o in outs}
        assert len(blobs) == 1, f"{name} differs between runs"


def test_pages_flag_truncates_dumps(tmp_path):
    body = dict(BASE_JOB, tasks=["mvss:2a"])
    job = write_job(tmp_path, body)
    out = tmp_path / "out"
    assert main(["compute", job, "--out", str(out), "--pages", "1"]) == 0
    pages = json.loads((out / "pages_2a.json").read_text())
    for entry in pages["degrees"]:
        assert all(pg["r"] <= 1 for pg in entry["pages"])


def test_job_pages_field_used_when_flag_absent(tmp_path):
    body = dict(BASE_JOB, tasks=["mvss:1a"], pages=0)
    job = write_job(tmp_path, body)
    out = tmp_path / "out"
    assert main(["compute", job, "--out", str(out)]) == 0
    pages = json.loads((out / "pages_1a.json").read_text())
    assert all(pg["r"] == 0 for e in pages["degrees"] for pg in e["pages"])


def test_default_window_and_rational_field(tmp_path):
    body = {
        "field": {"rational": True},
        "variables": 1,
        "quotient": ["x1^3"],
        "groups": [["x1"]],
        "tasks": ["cohomology", "verify34"],
    }
    job = write_job(tmp_path, body)
    out = tmp_path / "out"
    assert main(["compute", job, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["job"]["window"] == [[-4], [4]]
    assert report["job"]["field"] == {"rational": True}
    assert report["results"]["cohomology"]["nonzero_entries"] == 3


# the six-vertex real projective plane: its Stanley-Reisner ring has
# H^2 = H^3 = k in degree 0 exactly when k has characteristic 2
RP2_FACETS = [{1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6},
              {2, 3, 5}, {3, 4, 6}, {2, 4, 5}, {3, 5, 6}, {2, 4, 6}]


@pytest.mark.parametrize(
    "field,h",
    [({"prime": 2}, {2: 1, 3: 1}), ({"prime": 3}, {}), ({"rational": True}, {})],
)
def test_projective_plane_depends_on_characteristic(tmp_path, field, h):
    nonfaces = [
        "*".join(f"x{i}" for i in t)
        for t in itertools.combinations(range(1, 7), 3)
        if set(t) not in RP2_FACETS
    ]
    assert len(nonfaces) == 10
    tasks = ["cohomology", "verify34", "props2", "mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b"]
    body = {
        "field": field,
        "variables": 6,
        "quotient": nonfaces,
        "groups": [[f"x{i}" for i in range(1, 7)]],
        "window": [[0] * 6, [0] * 6],
        "tasks": tasks,
    }
    out = tmp_path / "out"
    assert main(["compute", write_job(tmp_path, body), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert {t: r["pass"] for t, r in report["results"].items()} == {t: True for t in tasks}
    rows = (out / "cohomology.csv").read_text().splitlines()
    assert rows[0] == "i,b1,b2,b3,b4,b5,b6,dim"
    assert rows[1:] == [f"{i},0,0,0,0,0,0,{h.get(i, 0)}" for i in range(7)]


@pytest.mark.parametrize(
    "patch,message",
    [
        ({"field": {"prime": 91}}, "modulus not prime: 91"),
        ({"field": {"prime": "seven"}}, "integer"),
        ({"field": {"real": True}}, "field"),
        ({"groups": [["zebra"]]}, "zebra"),
        ({"groups": []}, "groups"),
        ({"quotient": "x1"}, "quotient"),
        ({"variables": 0}, "variables"),
        ({"window": [[0], [1]]}, "window"),
        ({"window": [[1, 1], [0, 0]]}, "lo > hi"),
        ({"tasks": ["frobnicate"]}, "unknown task 'frobnicate'"),
        ({"tasks": []}, "tasks"),
        ({"tasks": ["les"], "groups": [["x1"]], "variables": 1, "window": [[-1], [1]]},
         "exactly two generator groups"),
        ({"pages": -1}, "pages"),
        ({"bogus_key": 1}, "unknown job field 'bogus_key'"),
        ({"variables": True}, "variables"),
        ({"window": [[False, False], [True, True]]}, "window"),
        ({"pages": True}, "pages"),
        ({"field": {"prime": True}}, "integer"),
    ],
)
def test_compute_rejects_bad_jobs(tmp_path, capsys, patch, message):
    body = dict(BASE_JOB)
    body.update(patch)
    job = write_job(tmp_path, body)
    assert main(["compute", job]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [(["--pages", "-1"], "--pages"), (["--jobs", "-1"], "--jobs")],
)
def test_compute_rejects_bad_flags(tmp_path, capsys, flags, message):
    job = write_job(tmp_path, BASE_JOB)
    out = tmp_path / "out"
    assert main(["compute", job, "--out", str(out), *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_compute_refuses_an_output_path_that_is_a_file(tmp_path, capsys):
    job = write_job(tmp_path, BASE_JOB)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["compute", job, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: cannot create output directory" in err
    assert "Traceback" not in err
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
def test_example_jobs_match_recorded_digests(tmp_path, name, jobs):
    out = tmp_path / "out"
    assert main(["compute", str(JOBS_DIR / f"{name}.json"), "--out", str(out),
                 "--jobs", jobs]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == EXAMPLE_DIGESTS[name]


def test_wall_jobs_pass_within_the_minimal_support_bound(tmp_path, monkeypatch):
    """Both jobs pass every task, and the oracle ranks no matrix with more rows
    than C(L', L'//2) (Sperner's bound on a slot of the reduced complex), L'
    the number of minimal supports of the sequence.  A complex on the whole
    sequence breaks the bound at its first large matrix, or on entry when the
    sequence is longer than L' (the 64-term product), so it fails at once
    instead of running for minutes."""
    supports = []  # L' of the sequence whose vectors are being computed
    vectors, oracle_vectors, rank = cech.OracleCache.vectors, cech._oracle_vectors, cech.rank

    def bounded_vectors(self, seq, b):
        masks = {cech.support_mask(g) for g in seq}
        supports.append(sum(1 for m in masks if not any(o != m and o & m == o for o in masks)))
        try:
            return vectors(self, seq, b)
        finally:
            supports.pop()

    def bounded_oracle_vectors(field, seq, quotient, b):
        assert len(seq) <= supports[-1], f"oracle complex on {len(seq)} terms"
        return oracle_vectors(field, seq, quotient, b)

    def bounded_rank(field, mat):
        bound = math.comb(supports[-1], supports[-1] // 2)
        assert mat.shape[0] <= bound, f"oracle matrix {mat.shape}, bound {bound}"
        return rank(field, mat)

    monkeypatch.setattr(cech.OracleCache, "vectors", bounded_vectors)
    monkeypatch.setattr(cech, "_oracle_vectors", bounded_oracle_vectors)
    monkeypatch.setattr(cech, "rank", bounded_rank)
    for name in ("two_by_four", "twelve_generators"):
        out = tmp_path / name
        assert main(["compute", str(JOBS_DIR / f"{name}.json"), "--out", str(out),
                     "--jobs", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        tasks = json.loads((JOBS_DIR / f"{name}.json").read_text())["tasks"]
        assert report["pass"] is True and sorted(report["results"]) == sorted(tasks)
        assert all(report["results"][t]["pass"] is True for t in tasks)


def test_compute_classifies_once_and_builds_one_lattice_per_class(tmp_path, monkeypatch):
    body = dict(BASE_JOB, window=[[-2, -2], [2, 2]],
                tasks=["cohomology", "verify34", "props2", "mvss:1a", "mvss:1b",
                       "mvss:2a", "mvss:2b", "les"])
    problem, _tasks, _pages = cli.load_job(write_job(tmp_path, body))
    classes = len(cech.degree_classes(problem))
    assert classes > 1
    calls = {"degree_classes": 0, "cech_multicomplex": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        original = getattr(cech, name)
        for mod in (cech, cli, mvss):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted(name, original))
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert calls == {"degree_classes": 1, "cech_multicomplex": classes}


@pytest.mark.parametrize("body,per_class", [
    (dict(BASE_JOB, variables=3, groups=[["x1"], ["x2"], ["x3"]],
          window=[[-1, -1, -1], [1, 1, 1]],
          tasks=["verify34", "mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b"]),
     {"verify_product_vs_interior": 1, "run_variant": 4, "infinity_filtration_report": 1,
      "mv_les": 0}),
    (dict(BASE_JOB, window=[[-2, -2], [2, 2]], tasks=["les"]),
     {"verify_product_vs_interior": 0, "run_variant": 2, "infinity_filtration_report": 0,
      "mv_les": 1}),
])
def test_compute_runs_the_traced_class_steps(tmp_path, monkeypatch, body, per_class):
    """The class steps ``compute`` runs are the functions the benchmark
    tracer wraps by name, at every ``cechmv`` module that binds them, so the
    tracer's per-layer metrics for them count real work: one call per degree
    class, and per class and variant for ``run_variant`` (``les`` runs 1a and
    2a itself when no ``mvss`` task has)."""
    calls = dict.fromkeys(per_class, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    binders = [mod for name, mod in sys.modules.items()
               if name == "cechmv" or name.startswith("cechmv.")]
    for name in calls:
        original = getattr(cech if name == "verify_product_vs_interior" else mvss, name)
        for mod in binders:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted(name, original))
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    problem, _tasks, _pages = cli.load_job(job)
    classes = len(cech.degree_classes(problem))
    assert classes > 1
    assert calls == {name: k * classes for name, k in per_class.items()}


@pytest.mark.parametrize("body", [
    dict(BASE_JOB, quotient=["x1^2*x2"], window=[[-2, -2], [2, 2]],
         tasks=["mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b", "les"]),
    dict(BASE_JOB, variables=3, groups=[["x1"], ["x2"], ["x3"]],
         window=[[-1, -1, -1], [1, 1, 1]], tasks=["mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b"]),
])
def test_compute_reduces_each_degree_once(tmp_path, monkeypatch, body):
    original = SpectralSequence._pairs
    seqs = []  # every sequence stays alive, so no id is reused
    reduced: dict[tuple[int, int], int] = {}

    def counted(self, m):
        if m not in self._mu:
            seqs.append(self)
            reduced[id(self), m] = reduced.get((id(self), m), 0) + 1
        return original(self, m)

    monkeypatch.setattr(SpectralSequence, "_pairs", counted)
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert reduced and max(reduced.values()) == 1


@pytest.mark.parametrize("name", ["two_ideals", "three_ideals"])
def test_props2_and_variants_share_one_split_and_sequence_per_filtration(tmp_path, monkeypatch,
                                                                        name):
    """Per degree class, props2 and the four variants read one Koszul split
    and five spectral sequences (props2's face filtration and the variants'
    four, which are props2's other three), and each sequence finds its
    abutment once."""
    body = json.loads((JOBS_DIR / f"{name}.json").read_text())
    body["tasks"] = ["props2", "mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b"]
    per_class: list[dict] = []
    worker, split = cli._class_worker, spectral.koszul_split
    init, abutment = SpectralSequence.__init__, SpectralSequence.abutment

    def counted_worker(args):
        per_class.append({"splits": 0, "sequences": [], "abutments": {}})
        return worker(args)

    def counted_split(mc):
        per_class[-1]["splits"] += 1
        return split(mc)

    def counted_init(self, fc):
        per_class[-1]["sequences"].append(self)  # kept alive, so no id is reused
        init(self, fc)

    def counted_abutment(self):
        calls = per_class[-1]["abutments"]
        calls[id(self)] = calls.get(id(self), 0) + 1
        return abutment(self)

    monkeypatch.setattr(cli, "_class_worker", counted_worker)
    for mod in (cli, mvss, spectral, multicomplex):
        if getattr(mod, "koszul_split", None) is split:
            monkeypatch.setattr(mod, "koszul_split", counted_split)
    monkeypatch.setattr(SpectralSequence, "__init__", counted_init)
    monkeypatch.setattr(SpectralSequence, "abutment", counted_abutment)
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    problem, _tasks, _pages = cli.load_job(job)
    assert len(per_class) == len(cech.degree_classes(problem)) > 1
    for calls in per_class:
        assert calls["splits"] == 1
        assert len(calls["sequences"]) == 5
        assert calls["abutments"] == {id(ss): 1 for ss in calls["sequences"]}


def count_regions(monkeypatch) -> list[dict]:
    """Wrap ``restrict``, ``totalize``, ``augment_interior``, ``koszul_split``
    and ``SpectralSequence`` at every binding; one dict of counts per degree
    class, keyed by region (``augmented`` by axes)."""
    per_class: list[dict] = []
    worker, init = cli._class_worker, SpectralSequence.__init__
    restrict, totalize = multicomplex.restrict, multicomplex.totalize
    augment, split = multicomplex.augment_interior, multicomplex.koszul_split

    def bump(kind, key):
        counts = per_class[-1][kind]
        counts[key] = counts.get(key, 0) + 1

    def counted_worker(args):
        per_class.append({"restricted": {}, "totalized": {}, "augmented": {}, "splits": {},
                          "sequences": {}, "region_of": {}, "alive": []})
        return worker(args)

    def counted_restrict(mc, region):
        out = restrict(mc, region)
        per_class[-1]["alive"].append(out)  # kept alive, so no id is reused
        per_class[-1]["region_of"][id(out)] = region
        bump("restricted", region)
        return out

    def counted_totalize(mc, *args, **kwargs):
        out = totalize(mc, *args, **kwargs)
        region = per_class[-1]["region_of"].get(id(mc))
        if region is not None:
            per_class[-1]["alive"].append(out)
            per_class[-1]["region_of"][id(out)] = region
            bump("totalized", region)
        return out

    def counted_augment(mc, axes, tot):
        # glued onto the one totalization of its own interior
        assert per_class[-1]["region_of"][id(tot)] == Region.interior(axes, mc.n)
        bump("augmented", axes)
        return augment(mc, axes, tot)

    def counted_split(mc):
        bump("splits", None)
        return split(mc)

    def counted_init(self, fc):
        bump("sequences", None)
        init(self, fc)

    monkeypatch.setattr(cli, "_class_worker", counted_worker)
    monkeypatch.setattr(SpectralSequence, "__init__", counted_init)
    for original, wrapper in ((restrict, counted_restrict), (totalize, counted_totalize),
                              (augment, counted_augment), (split, counted_split)):
        for mod in (cli, cech, mvss, spectral, multicomplex):
            name = original.__name__
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return per_class


@pytest.mark.parametrize("name", ["two_ideals", "three_ideals"])
def test_verify34_and_props2_build_each_region_once_per_class(tmp_path, monkeypatch, name):
    """Per degree class, verify34 and props2 restrict the lattice to each
    face, interior and punctured region once and totalize it once, and glue
    each augmented interior once, onto that interior's totalization."""
    body = json.loads((JOBS_DIR / f"{name}.json").read_text())
    body["tasks"] = ["verify34", "props2"]
    per_class = count_regions(monkeypatch)
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    problem, _tasks, _pages = cli.load_job(job)
    n = problem.n
    subsets = [s for p in range(1, n + 1) for s in itertools.combinations(range(n), p)]
    assert len(per_class) == len(cech.degree_classes(problem)) > 1
    faces_built = 0
    for calls in per_class:
        assert set(calls["restricted"].values()) == {1}
        assert calls["totalized"] == calls["restricted"]
        assert {Region.interior(s, n) for s in subsets} <= set(calls["restricted"])
        faces_built += any(r.kind == "face" for r in calls["restricted"])
        assert set(calls["augmented"].values()) == {1}
        assert tuple(range(n)) in calls["augmented"]
    assert faces_built  # props2 read the face regions of some class


@pytest.mark.parametrize("name", ["two_ideals", "three_ideals"])
def test_verify34_builds_no_split_sequence_or_face_region(tmp_path, monkeypatch, name):
    body = json.loads((JOBS_DIR / f"{name}.json").read_text())
    body["tasks"] = ["cohomology", "verify34"]
    per_class = count_regions(monkeypatch)
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert len(per_class) > 1
    for calls in per_class:
        assert calls["splits"] == {} and calls["sequences"] == {}
        assert {r.kind for r in calls["restricted"]} == {"interior"}
        assert len(calls["augmented"]) == 1


def test_internal_error_names_first_failing_class(tmp_path, monkeypatch):
    # the classes of (-1,0) and (0,-1) have variant-1a totals {1: 1, 2: 2};
    # the class of (-1,-1) comes first and must not be blamed
    # the failure is planted in the pair counts, which page 0 reads first
    original = SpectralSequence._pairs

    def failing(self, m):
        if self.fc.total.dims == {1: 1, 2: 2}:
            raise InternalCheckError("planted failure on page 0")
        return original(self, m)

    monkeypatch.setattr(SpectralSequence, "_pairs", failing)
    job = write_job(tmp_path, dict(BASE_JOB, tasks=["verify34", "mvss:1a"]))
    out = tmp_path / "out"
    assert main(["compute", job, "--out", str(out), "--jobs", "1"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert report["results"]["mvss:1a"] == {
        "pass": False,
        "internal_error": {"degree": [-1, 0], "message": "planted failure on page 0"},
    }
    assert report["results"]["verify34"]["pass"] is True
    assert not (out / "pages_1a.json").exists()


def test_compute_rejects_missing_fields(tmp_path, capsys):
    body = {k: v for k, v in BASE_JOB.items() if k != "groups"}
    job = write_job(tmp_path, body)
    assert main(["compute", job]) == 1
    assert "missing job field 'groups'" in capsys.readouterr().err


def test_compute_rejects_unreadable_or_invalid_files(tmp_path, capsys):
    assert main(["compute", str(tmp_path / "nope.json")]) == 1
    assert "cannot read job file" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["compute", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert main(["compute", str(lst)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_selftest_passes_and_is_deterministic(capsys):
    assert main(["selftest", "--seed", "3", "--max-vars", "2", "--max-groups", "2"]) == 0
    out1 = capsys.readouterr().out
    assert "selftest passed" in out1


@pytest.mark.parametrize("flags,message", [
    (["--max-vars", "0"], "--max-vars"),
    (["--max-groups", "0"], "--max-groups"),
    (["--seed", "-1"], "--seed"),
])
def test_selftest_refuses_bad_arguments(capsys, flags, message):
    assert main(["selftest", *flags]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_selftest_corruption_hook_reports_locus(capsys):
    assert main(["selftest", "--corrupt-signs"]) == 2
    out = capsys.readouterr().out
    assert "d o d != 0" in out
    assert "axis-0" in out


def test_console_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "cechmv.cli", "selftest", "--seed", "1",
         "--max-vars", "2", "--max-groups", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest passed" in proc.stdout


def reference_dumps(obj) -> str:
    """The whole-object encoding every JSON file must equal."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


# what the report trees hold: scalars, lists, and dicts keyed by strings or
# by integers (the per-index maps of les)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(),
              st.text(max_size=4)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.text(max_size=4), kids, max_size=3),
        st.dictionaries(st.integers(-12, 12), kids, max_size=3),
    ),
    max_leaves=10,
)


def degree_lists(num_vars, min_size=0):
    return st.lists(st.tuples(*[st.integers(-3, 3)] * num_vars), unique=True,
                    min_size=min_size, max_size=8)


@st.composite
def per_degree_lists(draw):
    key = draw(st.sampled_from(["degree", "b"]))
    records = draw(st.lists(
        st.dictionaries(st.text(max_size=4).filter(lambda k: k != key), json_values, max_size=4),
        min_size=1, max_size=3))
    degrees = draw(degree_lists(draw(st.integers(1, 3))))
    # members of one record are drawn independently, so they interleave
    return PerDegree(key, [(b, draw(st.sampled_from(records))) for b in degrees])


report_trees = st.recursive(
    st.one_of(json_values, per_degree_lists()),
    lambda kids: st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(report_trees)
def test_writer_matches_whole_object_dumps(tree):
    assert dumps(tree) == reference_dumps(plain(tree))


cell_maps = st.dictionaries(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                            st.integers(0, 3), max_size=4)
mismatch_lists = st.lists(st.fixed_dictionaries(
    {"p": st.integers(-1, 3), "q": st.integers(-1, 3), "got": st.integers(0, 3),
     "want": st.integers(0, 3)}), max_size=2)


@st.composite
def variant_results(draw):
    """A problem, a variant, a page cap and synthetic class results (members,
    (class run, infinity record or None)) as the mvss:V class step gives them."""
    num_vars = draw(st.integers(1, 3))
    n = draw(st.integers(2, 3))
    variant = draw(st.sampled_from(mvss.VARIANTS))
    degrees = draw(degree_lists(num_vars, min_size=1))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(degrees), max_size=len(degrees)))
    results = []
    for label in sorted(set(labels)):
        members = [b for b, lab in zip(degrees, labels) if lab == label]
        pages = [Page(r, draw(cell_maps), draw(cell_maps)) for r in range(draw(st.integers(0, 4)))]
        run = ClassRun(members, pages, max(len(pages) - 1, 1), draw(st.none() | st.integers(1, 4)),
                       {}, {}, draw(mismatch_lists), draw(mismatch_lists))
        inf = None
        if variant == "1a" and n == 3:
            inf = {"rows": draw(st.lists(st.fixed_dictionaries(
                {"total_degree": st.integers(0, 4), "ok": st.booleans()}), max_size=2)),
                   "pass": draw(st.booleans())}
        results.append((members, (run, inf)))
    gens = tuple(((1,) + (0,) * (num_vars - 1),) for _ in range(n))
    problem = CechProblem(PrimeField(65537), num_vars, gens, MonomialIdeal(num_vars, ()),
                          ((-3,) * num_vars, (3,) * num_vars))
    return problem, variant, draw(st.none() | st.integers(0, 4)), results


@settings(max_examples=150, deadline=None)
@given(variant_results())
def test_pages_file_and_payload_match_whole_object_dumps(case):
    problem, variant, pages, results = case
    payload, files = cli.assemble_unit(problem, f"mvss:{variant}", pages, results)
    kept = [dataclasses.replace(run, pages=[pg for pg in run.pages if pages is None or pg.r <= pages])
            for _members, (run, _inf) in results]
    degrees = plain(MvssRun(problem, variant, kept).degrees())
    assert [e["degree"] for e in degrees] == sorted(list(b) for members, _ in results for b in members)
    assert all(pg["r"] <= pages for e in degrees for pg in e["pages"] if pages is not None)
    assert files[f"pages_{variant}.json"] == reference_dumps({"variant": variant, "degrees": degrees})
    assert dumps(payload) == reference_dumps(plain(payload))
    if variant == "1a" and problem.n == 3:
        inf = plain(payload["infinity_filtration"])
        assert [e["degree"] for e in inf["degrees"]] == [e["degree"] for e in degrees]
        assert inf["failures"] == [e for e in inf["degrees"] if not e["pass"]]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("body", [
    dict(BASE_JOB, variables=3, groups=[["x1"], ["x2"], ["x3*x1"]], quotient=["x2^2"],
         window=[[-1, -1, -1], [1, 1, 1]],
         tasks=["cohomology", "verify34", "props2", "mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b"]),
    dict(BASE_JOB, quotient=["x1^2*x2"], window=[[-2, -2], [2, 2]]),
])
def test_written_json_is_in_canonical_form(tmp_path, body, jobs):
    out = tmp_path / "out"
    assert main(["compute", write_job(tmp_path, body), "--out", str(out), "--jobs", jobs]) == 0
    written = sorted(out.glob("*.json"))
    assert len(written) == 1 + sum(t.startswith("mvss:") for t in body["tasks"])
    for path in written:
        text = path.read_text()
        assert reference_dumps(json.loads(text)) == text, path.name
    report = json.loads((out / "report.json").read_text())
    assert ("infinity_filtration" in report["results"]["mvss:1a"]) == (len(body["groups"]) == 3)

