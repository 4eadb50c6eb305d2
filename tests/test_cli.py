"""Command line front end: job parsing, outputs, exit codes, determinism."""

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechmv import (CechProblem, InputError, InternalCheckError, LatticeSequences, MonomialIdeal,
                    PrimeField, SpectralSequence, cech, cli, multicomplex, mvss, spectral)
from cechmv.cli import main
from cechmv.jsonout import PerDegree, dumps, plain
from cechmv.mvss import ClassRun
from cechmv.spectral import Page

JOBS_DIR = Path(__file__).resolve().parent.parent / "jobs"

# sha256 of every file the example jobs write, recorded before compute was
# restructured around degree classes (three_term_quotient's and
# rational_all_tasks's before the call coverage gate moved test-only code
# out of the package)
EXAMPLE_DIGESTS = {
    "mixed_quotient": {
        "cohomology.csv": "99354f6495356f360d479e513ef05247152496a88de5c140e4cd3304eb85b3b7",
        "pages_2b.json": "5f1b611f4643ff6998d370f21a1f940bb4620d446de08c8b3d056ce26afbb867",
        "report.json": "4a8dfdfe0a355f798c54bb1492a8a50fad2bde1f7661a2d2909fcd4383c2132f",
    },
    "rational_all_tasks": {
        "cohomology.csv": "b50473870ddbc197656c487f1a4ad344b04fb5659cb82c423bc58ccf7dbdb3c0",
        "pages_1a.json": "7430a2860d9d193fb49fe6b7c2b034e281c4536e470beb95857bf2f9480d35ef",
        "pages_1b.json": "95c0807014eb373236d4b1472b11fee45a98d70c681f0fee8fdbb5823a86172b",
        "pages_2a.json": "0cfb02906fe0de43094fb3cec21072bc83a1ddd5e8058d60e6486cb01862f932",
        "pages_2b.json": "ecd68430ec6efe8bac08e5ce2abd5dfb57d14efabdbfe477373a615412ce940d",
        "report.json": "8193994d05efd3b68fc2ec068a37aad5cbac0e171ea39d68ca95836923e97412",
    },
    "three_term_quotient": {
        "cohomology.csv": "35c9e7f85619fd035192dd87b1001479251d95ab7d1018d43bf0a89bbd9628e1",
        "pages_1a.json": "be549c8c2142a25cb9538b67d040eea5e96388cebe24fc9af88c882a5d408531",
        "pages_1b.json": "4aaa78f89a5c4203ca365ce76c2e988e51e9db797aaffabef92ba2c771a2c442",
        "pages_2a.json": "7c6ec77c606068293190791320d1a691294105fb56c22c269ea9277390f65562",
        "pages_2b.json": "94c49fa5cacffa92eaba54c3dea1d183ca6a89b21d30b10ffcccc8e8974eb96f",
        "report.json": "70588b13a04ebf3d7abf3f96a23e7f7f5625c8344027790c2ce943bce82803fa",
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

# every file the wall jobs write
WALL_DIGESTS = {
    "two_by_four": {
        "cohomology.csv": "d42c70ecd29379fe3f438ba468dafd86a667d37df0c48f4aa10202b96258f6b1",
        "pages_1a.json": "c06c911b839ef63c45a672535f272fa9ee1088c82f6a74254cd23514c3c0584a",
        "pages_1b.json": "3c6b91bcf7f11476ce15aab5f7d9c89c1bb1696748f94c48e283be0cfa91efba",
        "pages_2a.json": "68ba58d593ec92c2a843161e7c98427003626680147576af14817737ef440da4",
        "pages_2b.json": "d4b8e22e6c32133928d847e87cb544f6f1b8fa706ce946aec083d3a1ae6ea7f7",
        "report.json": "9301761746c417d6d7111aacf80da2319b2c20c7a549b8fe338aa074497bf962",
    },
    "twelve_generators": {
        "cohomology.csv": "655ef36cae90ddb28745cd599dfc30c933e3c0668b99c677761f2e5d37dc37c9",
        "report.json": "afb41532cd55e8b9cd8f403168d0764c66374e842d20b106bcb78d0609c0b414",
    },
    "four_ideals": {
        "cohomology.csv": "dffb50d7cb203d0b0dd76e2d9a6f0797d3fba6a36fc446bfcbb6571f42d7f00e",
        "pages_1a.json": "7099c7a765b4787656d7cbca50eaeaeeb8b0f31e883630dea48f1ea153e80673",
        "pages_1b.json": "8745fd28837107e5d5e2acf9f05fda5b42a5f75abbe7b083f36bdd8685ef605f",
        "pages_2a.json": "bfb7e19f1f87a8b379e11434da99e9c4413c9c5e940922e913bb29b4fc3207fb",
        "pages_2b.json": "440d48b0db558df20f2e112ddd23765acd670dc453cfd9e87b9b6fa14d95bfeb",
        "report.json": "bdcedf459a8d1d98ceecb4cb663420d8733c65339d5de186966fac1a9d0ab0fd",
    },
    "fifteen_generators": {
        "cohomology.csv": "21a119ffa7cfce413ed9fbf3f3a41d2a8715ab4368e7b7e7df08798adc08fb6d",
        "report.json": "3a51c06fe7e1eb62fa36df864d2b2a42c11ca6ab6307961d4df940fd7443f95b",
    },
    "fifteen_generators_face": {
        "pages_1a.json": "4d5764b62391a7a884b3e6e5b1804453b49da0fb9a6d5e5c616fc82b2c9b12b6",
        "pages_1b.json": "6543b68fbddc3b0be40dcb9cbae585c5f9fa40bb4c2e58246599aca1c84f6d95",
        "report.json": "98e3eb25c9f9ecbdabfa46004648d5cf97c73d02a09e825125a9147709af8f1d",
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
    """The page limit, once a ``--pages`` flag, is the job's ``pages`` field:
    ``pages: 1`` writes the 2a pages up to r = 1."""
    body = dict(BASE_JOB, tasks=["mvss:2a"], pages=1)
    job = write_job(tmp_path, body)
    out = tmp_path / "out"
    assert main(["compute", job, "--out", str(out)]) == 0
    pages = json.loads((out / "pages_2a.json").read_text())
    assert {pg["r"] for e in pages["degrees"] for pg in e["pages"]} == {0, 1}


def test_job_pages_field_used_when_flag_absent(tmp_path):
    """The job's ``pages`` field, the one way to set a page limit, truncates
    the page dumps."""
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
        # psi_12 = 1287836182261 * 2575672364521 passes all twelve Miller-Rabin bases
        ({"field": {"prime": 3317044064679887385961981}}, "too large"),
        ({"pages": 1000000}, "pages must be at most 4"),
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
    # the page limit is a job field only: the flag is an unknown argument
    [(["--pages", "1"], "--pages"), (["--jobs", "-1"], "--jobs")],
)
def test_compute_rejects_bad_flags(tmp_path, capsys, flags, message):
    job = write_job(tmp_path, BASE_JOB)
    out = tmp_path / "out"
    assert main(["compute", job, "--out", str(out), *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["job", "flag"])
def test_pages_past_n_plus_2_are_refused(tmp_path, capsys, where):
    """Every filtration of n groups is at most n + 1 wide, so a default run
    writes pages up to n + 2; a larger ``pages`` is refused before any work.
    The job field is the one place to set it: on the command line,
    ``--pages`` is refused as an unknown argument whatever its value."""
    n = len(BASE_JOB["groups"])
    if where == "flag":
        for pages in (n + 2, n + 3):
            body = dict(BASE_JOB, tasks=["mvss:1a"])
            out = tmp_path / f"out{pages}"
            flags = ["--pages", str(pages)]
            assert main(["compute", write_job(tmp_path, body), "--out", str(out), *flags]) == 1
            assert f"unrecognized arguments: --pages {pages}" in capsys.readouterr().err
            assert not out.exists()
        return
    for pages, code in ((n + 2, 0), (n + 3, 1)):
        body = dict(BASE_JOB, tasks=["mvss:1a"], pages=pages)
        out = tmp_path / f"out{pages}"
        assert main(["compute", write_job(tmp_path, body), "--out", str(out)]) == code
        if code:
            assert f"must be at most {n + 2}" in capsys.readouterr().err
            assert not out.exists()
        else:
            degrees = json.loads((out / "pages_1a.json").read_text())["degrees"]
            assert max(pg["r"] for e in degrees for pg in e["pages"]) <= n + 2


@pytest.mark.parametrize("args,message", [
    (["compute", "JOB", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
    (["compute"], "the following arguments are required: job"),
    (["compute", "JOB", "--frobnicate"], "unrecognized arguments: --frobnicate"),
    (["selftest", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
])
def test_usage_errors_exit_1_with_the_parsers_message(tmp_path, capsys, args, message):
    """A command line the parser refuses is an input error, exit 1, not the
    exit 2 of a failed verification; ``--help`` still exits 0."""
    job = write_job(tmp_path, BASE_JOB)
    assert main([job if a == "JOB" else a for a in args]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert main(["compute", "--help"]) == 0
    assert "--jobs" in capsys.readouterr().out


@pytest.mark.parametrize("pages", [-1, 4, 200, True])
def test_library_compute_refuses_what_the_command_refuses(pages):
    """``compute`` refuses a ``pages`` outside 0..n+2 (3 for one group), or
    one that is not an integer, as ``cechmv compute`` does, before any work;
    the cap itself is accepted."""
    problem = CechProblem.from_text(PrimeField(65537), 1, [["x1"]])
    with pytest.raises(InputError, match="pages must be"):
        cli.compute(problem, ["mvss:1a"], pages=pages)
    report, files = cli.compute(problem, ["mvss:1a"], pages=3)
    assert report["pass"] is True
    assert {pg["r"] for e in json.loads(files["pages_1a.json"])["degrees"]
            for pg in e["pages"]} <= {0, 1, 2, 3}


def test_library_compute_refuses_an_empty_task_list(tmp_path, capsys):
    """``compute`` with no task refuses, with the message ``cechmv compute``
    gives for a job whose task list is empty, and writes nothing."""
    message = "tasks must be a nonempty list of task names"
    problem = CechProblem.from_text(PrimeField(65537), 1, [["x1"]])
    with pytest.raises(InputError, match=message):
        cli.compute(problem, [])
    out = tmp_path / "out"
    assert main(["compute", write_job(tmp_path, dict(BASE_JOB, tasks=[])), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
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


def test_an_unwritable_output_file_is_an_error_not_a_traceback(tmp_path, capsys):
    job = write_job(tmp_path, BASE_JOB)
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)  # a directory where the report goes
    assert main(["compute", job, "--out", str(out), "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert "error: cannot write report.json: " in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert (out / "report.json").is_dir()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
def test_example_jobs_match_recorded_digests(tmp_path, name, jobs):
    out = tmp_path / "out"
    assert main(["compute", str(JOBS_DIR / f"{name}.json"), "--out", str(out),
                 "--jobs", jobs]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == EXAMPLE_DIGESTS[name]


def test_wall_jobs_pass_within_the_minimal_support_bound(tmp_path, monkeypatch):
    """The wall jobs pass every task and write the recorded bytes, and the oracle
    ranks no matrix with more rows than C(L', L'//2) (Sperner's bound on a
    slot of the reduced complex), L' the number of minimal supports of the
    sequence.  A complex on the whole sequence breaks the bound at its first
    large matrix, or on entry when the sequence is longer than L' (the
    64-term product), so it fails at once instead of running for minutes."""
    supports = []  # L' of the sequence whose vectors are being computed
    vectors, oracle_vectors, rank = cech.OracleCache.vectors, cech._oracle_vectors, cech.rank

    def bounded_vectors(self, seq, b):
        masks = {cech.support_mask(g) for g in seq}
        supports.append(sum(1 for m in masks if not any(o != m and o & m == o for o in masks)))
        try:
            return vectors(self, seq, b)
        finally:
            supports.pop()

    def bounded_oracle_vectors(field, seq, pattern):
        assert len(seq) <= supports[-1], f"oracle complex on {len(seq)} terms"
        return oracle_vectors(field, seq, pattern)

    def bounded_rank(field, mat):
        bound = math.comb(supports[-1], supports[-1] // 2)
        assert mat.shape[0] <= bound, f"oracle matrix {mat.shape}, bound {bound}"
        return rank(field, mat)

    monkeypatch.setattr(cech.OracleCache, "vectors", bounded_vectors)
    monkeypatch.setattr(cech, "_oracle_vectors", bounded_oracle_vectors)
    monkeypatch.setattr(cech, "rank", bounded_rank)
    for name in WALL_DIGESTS:
        out = tmp_path / name
        assert main(["compute", str(JOBS_DIR / f"{name}.json"), "--out", str(out),
                     "--jobs", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        tasks = json.loads((JOBS_DIR / f"{name}.json").read_text())["tasks"]
        assert report["pass"] is True and sorted(report["results"]) == sorted(tasks)
        assert all(report["results"][t]["pass"] is True for t in tasks)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == WALL_DIGESTS[name]


def serial_pool(monkeypatch) -> list[int]:
    """Replace ``multiprocessing.Pool`` by a pool that maps in this process;
    returns the list its worker counts are appended to."""
    import multiprocessing

    started = []

    class SerialPool:
        """Records its worker count and maps in this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work, chunksize=1):
            return [fn(w) for w in work]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return started


def test_compute_starts_at_most_one_worker_per_cpu(tmp_path, monkeypatch):
    body = dict(BASE_JOB, window=[[-2, -2], [2, 2]])
    problem, tasks, _pages = cli.load_job(write_job(tmp_path, body))
    assert len(cech.degree_classes(problem)) > 3
    started = serial_pool(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    report, files = cli.compute(problem, tasks, jobs=10**6)
    assert started == [3]
    assert (report, files) == cli.compute(problem, tasks, jobs=1)


def test_worker_cap_counts_the_cpus_the_process_may_use(tmp_path, monkeypatch):
    """Under ``taskset -c 0`` (an affinity of one CPU on a machine of 8),
    ``compute`` at ``--jobs 2`` and ``--jobs 0`` opens no pool and writes
    what ``--jobs 1`` writes; with three CPUs allowed, ``--jobs 0`` opens a
    pool of three; where the platform has no affinity, the CPU count caps."""
    problem, _tasks, _pages = cli.load_job(str(JOBS_DIR / "two_by_four.json"))
    tasks = ["cohomology", "verify34"]
    want = cli.compute(problem, tasks, jobs=1)
    assert len(set(cech.class_orbits(problem, [p for p, _m in cech.degree_classes(problem)]))) > 3
    started = serial_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.compute(problem, tasks, jobs=2) == want
    job = write_job(tmp_path, dict(json.loads((JOBS_DIR / "two_by_four.json").read_text()),
                                   tasks=tasks))
    assert main(["compute", job, "--out", str(tmp_path / "one"), "--jobs", "0"]) == 0
    assert started == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert main(["compute", job, "--out", str(tmp_path / "three"), "--jobs", "0"]) == 0
    assert started == [3]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli.compute(problem, tasks, jobs=10**6) == want
    assert started == [3, 6]  # 6 orbits, under 8 CPUs
    for out in ("one", "three"):
        assert (tmp_path / out / "report.json").read_text() == want[1]["report.json"]


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


def test_compute_builds_one_lattice_per_orbit_of_symmetric_classes(tmp_path, monkeypatch):
    """The symmetric companion of the test above: x1 <-> x2 maps both groups
    onto themselves, so the classes of (-1, 0) and (0, -1) form one orbit,
    and the lattice builds equal the orbits, fewer than the classes."""
    body = dict(BASE_JOB, groups=[["x1", "x2"], ["x1*x2"]],
                tasks=["cohomology", "verify34", "props2", "mvss:1a", "mvss:1b",
                       "mvss:2a", "mvss:2b", "les"])
    job = write_job(tmp_path, body)
    problem, _tasks, _pages = cli.load_job(job)
    patterns = [pat for pat, _members in cech.degree_classes(problem)]
    orbits = len(set(cech.class_orbits(problem, patterns)))
    assert (len(patterns), orbits) == (4, 3)
    builds = []
    original = cech.cech_multicomplex

    def counted(problem, pattern):
        builds.append(pattern)
        return original(problem, pattern)

    monkeypatch.setattr(cli, "cech_multicomplex", counted)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert builds == [cech.piece_pattern(problem, b) for b in [(-1, -1), (-1, 0), (0, 0)]]


@pytest.mark.parametrize("path,calls", [("jobs/two_by_four.json", 16 + 6),
                                        ("perfbench/workloads/lattice-window.json", 16 + 10)])
def test_compute_evaluates_one_pattern_per_chamber_and_one_per_orbit(monkeypatch, path, calls):
    """The classification evaluates the piece pattern once per chamber (16
    on both jobs), and each orbit's step once more, in its oracle; the
    lattice is built from the class's pattern, which it does not evaluate
    again."""
    problem, tasks, pages = cli.load_job(str(JOBS_DIR.parent / path))
    patterns = [pat for pat, _members in cech.degree_classes(problem)]
    assert len(set(cech.class_orbits(problem, patterns))) == calls - 16
    original, seen = cech.piece_pattern, []

    def counted(problem, b):
        seen.append(b)
        return original(problem, b)

    monkeypatch.setattr(cech, "piece_pattern", counted)
    report, _files = cli.compute(problem, tasks, pages)
    assert report["pass"] is True and len(seen) == calls


def test_a_class_given_another_class_pattern_fails_its_audits():
    """The lattice is built from the pattern ``compute`` passes and the
    oracle evaluates its own at b0, so every audit comparing the two also
    checks the classification: a class given the pattern of a class whose
    oracle answers differ reports mismatches in verify34 and in every
    variant, and passes with its own pattern."""
    problem, _tasks, _pages = cli.load_job(str(JOBS_DIR / "two_ideals.json"))
    (pat, members), (other, others) = cech.degree_classes(problem)[::3]  # (-3, -3) and (0, 0)
    column = cech.OracleCache(problem).column
    assert [column("product", (0, 1), "full", c[0]) for c in (members, others)] == [{1: 1}, {}]
    for pattern, ok in ((pat, True), (other, False)):
        klass = cli.DegreeClass(problem, pattern, members[0])
        assert (cli.run_unit(klass, "verify34", None) == []) is ok
        for variant in mvss.VARIANTS:
            run, _inf = cli.run_unit(klass, f"mvss:{variant}", None)
            assert (run.e1_mismatches == run.abutment_mismatches == []) is ok, variant


@pytest.mark.parametrize("body,per_class", [
    (dict(BASE_JOB, variables=3, groups=[["x1"], ["x2"], ["x3"]],
          window=[[-1, -1, -1], [1, 1, 1]],
          tasks=["verify34", "mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b"]),
     {"verify_product_vs_interior": 1, "run_variant": 4, "infinity_filtration_report": 1,
      "mv_les": 0}),
    (dict(BASE_JOB, window=[[-2, -2], [2, 2]], tasks=["les"]),
     {"verify_product_vs_interior": 0, "run_variant": 0, "infinity_filtration_report": 0,
      "mv_les": 1}),
])
def test_compute_runs_the_traced_class_steps(tmp_path, monkeypatch, body, per_class):
    """The class steps ``compute`` runs are the functions the benchmark
    tracer wraps by name, at every ``cechmv`` module that binds them, so the
    tracer's per-layer metrics for them count real work: one call per degree
    class, and per class and variant for ``run_variant`` (``les`` runs none: it
    reads the first pages of the class's 1a and 2a sequences).  No variable permutation fixes
    these jobs' groups, so every class is its own orbit."""
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


@pytest.mark.parametrize("name", ["two_by_four", "two_ideals"])
def test_les_alone_reads_the_first_pages_and_runs_no_variant(monkeypatch, name):
    """``les`` without the ``mvss:1a`` and ``mvss:2a`` tasks writes the
    ``les`` payload of the whole job, byte for byte, and calls
    ``run_variant`` not once: it reads the two first pages from the class's
    sequences."""
    problem, tasks, pages = cli.load_job(str(JOBS_DIR / f"{name}.json"))
    assert {"mvss:1a", "mvss:2a", "les"} <= set(tasks)
    full, _files = cli.compute(problem, tasks, pages)
    runs = []
    original = cli.run_variant

    def counted(*args, **kwargs):
        runs.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_variant", counted)
    alone, files = cli.compute(problem, ["les"], pages)
    assert runs == []
    assert sorted(files) == ["report.json"]
    assert alone["pass"] is True
    assert dumps(alone["results"]["les"]) == dumps(full["results"]["les"])


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
    limit page and abutment once."""
    body = json.loads((JOBS_DIR / f"{name}.json").read_text())
    body["tasks"] = ["props2", "mvss:1a", "mvss:1b", "mvss:2a", "mvss:2b"]
    per_class: list[dict] = []
    worker, split = cli._class_worker, spectral.koszul_split
    init, infinity = SpectralSequence.__init__, SpectralSequence.infinity

    def counted_worker(args):
        per_class.append({"splits": 0, "sequences": [], "abutments": {}})
        return worker(args)

    def counted_split(mc):
        per_class[-1]["splits"] += 1
        return split(mc)

    def counted_init(self, fc):
        per_class[-1]["sequences"].append(self)  # kept alive, so no id is reused
        init(self, fc)

    def counted_infinity(self):
        if self._infinity is None:  # a cached call computes nothing
            calls = per_class[-1]["abutments"]
            calls[id(self)] = calls.get(id(self), 0) + 1
        return infinity(self)

    monkeypatch.setattr(cli, "_class_worker", counted_worker)
    for mod in (cli, mvss, spectral, multicomplex):
        if getattr(mod, "koszul_split", None) is split:
            monkeypatch.setattr(mod, "koszul_split", counted_split)
    monkeypatch.setattr(SpectralSequence, "__init__", counted_init)
    monkeypatch.setattr(SpectralSequence, "infinity", counted_infinity)
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    problem, _tasks, _pages = cli.load_job(job)
    assert len(per_class) == len(cech.degree_classes(problem)) > 1
    for calls in per_class:
        assert calls["splits"] == 1
        assert len(calls["sequences"]) == 5
        assert calls["abutments"] == {id(ss): 1 for ss in calls["sequences"]}


def count_builds(monkeypatch) -> list[dict]:
    """Wrap ``totalize``, ``restrict``, ``augment_interior``, ``koszul_split``,
    ``cube_extension``, ``SpectralSequence`` and the builders of
    ``LatticeSequences`` at every binding; one dict of counts per degree
    class:

      totalized   per input ("lattice", "face half", "cube" or "other"), the
                  totalizations of it;
      restricted  per region ``("region", kind, axes)`` or filtered complex
                  ``("filtered", kind)``, the restrictions made to build it;
      augmented   per axes, the augmented interiors read off the cube total.
    """
    per_class: list[dict] = []
    worker, init = cli._class_worker, SpectralSequence.__init__
    seqs_init, region, sequence = (LatticeSequences.__init__, LatticeSequences.region,
                                   LatticeSequences.sequence)
    restrict, totalize = multicomplex.restrict, multicomplex.totalize
    augment, split, cube = (multicomplex.augment_interior, multicomplex.koszul_split,
                            multicomplex.cube_extension)
    building: list[tuple] = []  # the regions and filtered complexes being built, innermost last

    def bump(kind, key):
        counts = per_class[-1][kind]
        counts[key] = counts.get(key, 0) + 1

    def counted_worker(args):
        per_class.append({"totalized": {}, "restricted": {}, "augmented": {}, "splits": {},
                          "sequences": {}, "lattices": [], "cubes": [], "made_by": {},
                          "alive": []})
        return worker(args)

    def counted_seqs_init(self, mc):
        per_class[-1]["lattices"].append(self)
        seqs_init(self, mc)

    def builder(method, label):
        def wrapped(self, kind, *args):
            building.append((label, kind, *args))
            try:
                return method(self, kind, *args)
            finally:
                building.pop()
        return wrapped

    def counted_totalize(mc):
        (seqs,) = per_class[-1]["lattices"]
        if mc is seqs.mc:
            bump("totalized", "lattice")
        elif mc is seqs.__dict__.get("face_half"):
            bump("totalized", "face half")
        elif any(mc is c for c in per_class[-1]["cubes"]):
            bump("totalized", "cube")
        else:
            bump("totalized", "other")
        return totalize(mc)

    def counted_restrict(tot, keep):
        out = restrict(tot, keep)
        per_class[-1]["alive"].append(out)  # kept alive, so no id is reused
        per_class[-1]["made_by"].setdefault(id(out), []).append(building[-1])
        bump("restricted", building[-1])
        return out

    def counted_augment(tot, axes):
        # read off the class's one cube total
        (seqs,) = per_class[-1]["lattices"]
        assert tot is seqs.__dict__.get("cube_total")
        bump("augmented", axes)
        return augment(tot, axes)

    def counted_split(mc):
        bump("splits", None)
        return split(mc)

    def counted_cube(mc):
        out = cube(mc)
        per_class[-1]["cubes"].append(out)
        return out

    def counted_init(self, fc):
        bump("sequences", None)
        init(self, fc)

    monkeypatch.setattr(cli, "_class_worker", counted_worker)
    monkeypatch.setattr(SpectralSequence, "__init__", counted_init)
    monkeypatch.setattr(LatticeSequences, "__init__", counted_seqs_init)
    monkeypatch.setattr(LatticeSequences, "region", builder(region, "region"))
    # a filtered complex is built with its spectral sequence
    monkeypatch.setattr(LatticeSequences, "sequence", builder(sequence, "filtered"))
    for original, wrapper in ((restrict, counted_restrict), (totalize, counted_totalize),
                              (augment, counted_augment), (split, counted_split),
                              (cube, counted_cube)):
        for mod in (cli, cech, mvss, spectral, multicomplex):
            name = original.__name__
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return per_class


@pytest.mark.parametrize("name", ["two_ideals", "three_ideals"])
def test_verify34_and_props2_build_each_region_once_per_class(tmp_path, monkeypatch, name):
    """Per degree class, verify34 and props2 totalize the face half of the
    lattice's split and its cube extension at most once each, and never the
    lattice itself; they build every region and filtered complex with at
    most one restriction of one of the two, and read each augmented interior
    off the cube total once."""
    body = json.loads((JOBS_DIR / f"{name}.json").read_text())
    body["tasks"] = ["verify34", "props2"]
    per_class = count_builds(monkeypatch)
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    problem, _tasks, _pages = cli.load_job(job)
    n = problem.n
    subsets = [s for p in range(1, n + 1) for s in itertools.combinations(range(n), p)]
    assert len(per_class) == len(cech.degree_classes(problem)) > 1
    faces_built = both = 0
    for calls in per_class:
        assert set(calls["totalized"]) <= {"face half", "cube"}
        assert set(calls["totalized"].values()) == {1}
        both += len(calls["totalized"]) == 2
        assert set(calls["restricted"].values()) == {1}
        assert {("region", "interior", s) for s in subsets} <= set(calls["restricted"])
        faces_built += ("region", "face", ()) in calls["restricted"]
        assert set(calls["augmented"].values()) == {1}
        assert tuple(range(n)) in calls["augmented"]
    assert faces_built and both  # props2 read the face regions and every filtration


@pytest.mark.parametrize("name", ["two_ideals", "three_ideals"])
def test_verify34_builds_no_split_sequence_or_face_region(tmp_path, monkeypatch, name):
    body = json.loads((JOBS_DIR / f"{name}.json").read_text())
    body["tasks"] = ["cohomology", "verify34"]
    per_class = count_builds(monkeypatch)
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert len(per_class) > 1
    for calls in per_class:
        assert calls["splits"] == {} and calls["sequences"] == {}
        assert calls["totalized"] == {"cube": 1}
        assert {key[:2] for key in calls["restricted"]} == {("region", "interior"),
                                                            ("region", "augmented")}
        assert len(calls["augmented"]) == 1


def test_region_complexes_are_dropped_once_their_cohomology_is_read(tmp_path, monkeypatch):
    """verify34 and props2 on ``three_ideals``: every region complex built
    is dead once ``region_h`` returns, so a class keeps only the cohomology.
    A region that keeps every block is the cube total itself, which the
    class holds for its cube count filtration, and is not counted."""
    region, region_h = LatticeSequences.region, LatticeSequences.region_h
    built: list = []  # (kind, weakref) of the region complexes of the current region_h call
    kinds = set()

    def tracked_region(self, kind, axes):
        out = region(self, kind, axes)
        if out is not self.__dict__.get("cube_total"):
            built.append((kind, weakref.ref(out)))
        return out

    def checked_region_h(self, kind, axes):
        built.clear()
        h = region_h(self, kind, axes)
        kinds.update(k for k, _ in built)
        assert [k for k, ref in built if ref() is not None] == []
        return h

    monkeypatch.setattr(LatticeSequences, "region", tracked_region)
    monkeypatch.setattr(LatticeSequences, "region_h", checked_region_h)
    body = json.loads((JOBS_DIR / "three_ideals.json").read_text())
    body["tasks"] = ["verify34", "props2"]
    job = write_job(tmp_path, body)
    assert main(["compute", job, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert kinds == {"face", "interior", "augmented"}


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


def test_failure_under_orbit_reuse_is_reported_as_class_by_class(tmp_path, monkeypatch):
    """A fault that every class hits, on a job whose classes share steps
    across orbits: the failing task names the same degree and message as a
    run with every class its own orbit, because the first failing class is
    the first class of its orbit and runs its own step."""
    body = json.loads((JOBS_DIR / "two_by_four.json").read_text())
    problem = CechProblem.from_text(PrimeField(65537), 4, body["groups"],
                                    window=((-1,) * 4, (1,) * 4))
    patterns = [pat for pat, _members in cech.degree_classes(problem)]
    assert len(set(cech.class_orbits(problem, patterns))) < len(patterns)
    original = SpectralSequence._pairs

    def failing(self, m):
        dims = sorted(self.fc.total.dims.items())
        if dims:
            raise InternalCheckError(f"planted failure in degree {m} of a total with dims {dims}")
        return original(self, m)

    monkeypatch.setattr(SpectralSequence, "_pairs", failing)
    tasks = ["cohomology", "verify34", "mvss:1b", "mvss:2a", "les"]
    reused = cli.compute(problem, tasks)
    monkeypatch.setattr(cli, "class_orbits", lambda problem, patterns: list(range(len(patterns))))
    alone = cli.compute(problem, tasks)
    assert reused == alone
    for unit in ("mvss:1b", "mvss:2a", "les"):
        error = reused[0]["results"][unit]["internal_error"]
        assert error["degree"] == [-1, -1, -1, -1]
        assert error["message"].startswith("planted failure in degree")
    assert reused[0]["results"]["verify34"]["pass"] is True


def test_memory_error_in_a_class_step_is_an_internal_error(tmp_path, monkeypatch, capsys):
    """A class step that runs out of memory fails its task like an internal
    error, naming the first class's degree, with exit 2 and no traceback.
    numpy raises its own subclass, whose constructor takes (shape, dtype)."""
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError
    err = _ArrayMemoryError((6300, 6075), np.dtype(np.int64))

    def out_of_memory(*args, **kwargs):
        raise err

    monkeypatch.setattr(cli, "verify_product_vs_interior", out_of_memory)
    job = write_job(tmp_path, dict(BASE_JOB, tasks=["cohomology", "verify34"]))
    out = tmp_path / "out"
    assert main(["compute", job, "--out", str(out), "--jobs", "1"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert report["results"]["verify34"] == {
        "pass": False, "internal_error": {"degree": [-1, -1], "message": str(err)}}
    assert report["results"]["cohomology"]["pass"] is True


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


def test_selftest_passes_and_is_deterministic(capsys, monkeypatch):
    """Two runs with one seed pass the same five problems to ``compute``,
    and another seed passes other ones; each problem runs every task it
    admits, ``les`` only with two groups."""
    drawn: list = []
    compute = cli.compute

    def recorded_compute(problem, tasks, *args, **kwargs):
        drawn.append((problem, tasks))
        return compute(problem, tasks, *args, **kwargs)

    monkeypatch.setattr(cli, "compute", recorded_compute)
    runs = []
    for seed in ("3", "3", "4"):
        drawn.clear()
        assert main(["selftest", "--seed", seed, "--max-vars", "2", "--max-groups", "2"]) == 0
        assert "selftest passed" in capsys.readouterr().out
        runs.append(list(drawn))
    assert len(runs[0]) == 5
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]
    for problem, tasks in runs[0] + runs[2]:
        assert tasks == [t for t in cli.TASK_ORDER if t != "les" or problem.n == 2]
    assert {problem.n for problem, _tasks in runs[0] + runs[2]} == {1, 2}


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


def reference_variant_listing(variant: str, results) -> dict:
    """What ``MvssRun`` listed for a variant over (members, (class run,
    infinity record)) before ``assemble_unit`` took it over: the failures,
    summary and ``degrees`` of ``pages_V.json``, one record per class spread
    over its members."""
    failures = [
        {"variant": variant, "degree": list(b), "kind": kind, **mm}
        for members, (cls, _inf) in results
        for b in members
        for kind, mms in (("e1", cls.e1_mismatches), ("abutment", cls.abutment_mismatches))
        for mm in mms
    ]
    degrees = PerDegree.by_degree([
        (members, {
            "variant": variant,
            "pages": [pg.to_json() for pg in cls.pages],
            "stabilized_at": cls.stabilized_at,
            "e1_check": {"pass": not cls.e1_mismatches, "mismatches": cls.e1_mismatches},
            "abutment_check": {"pass": not cls.abutment_mismatches,
                               "mismatches": cls.abutment_mismatches},
        })
        for members, (cls, _inf) in results
    ])
    n_deg = sum(len(members) for members, _ in results)
    status = "pass" if not failures else f"FAIL ({len(failures)} mismatches)"
    return {"failures": failures, "degrees": plain(degrees),
            "summary": f"variant {variant}: {n_deg} degrees in {len(results)} classes, {status}"}


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
        run = ClassRun(pages, draw(st.none() | st.integers(1, 4)), draw(mismatch_lists),
                       draw(mismatch_lists))
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
    kept = [(members, (dataclasses.replace(run, pages=[pg for pg in run.pages
                                                       if pages is None or pg.r <= pages]), inf))
            for members, (run, inf) in results]
    ref = reference_variant_listing(variant, kept)
    degrees = ref["degrees"]
    assert (payload["failures"], payload["summary"]) == (ref["failures"], ref["summary"])
    assert payload["pass"] == (not ref["failures"] and payload.get(
        "infinity_filtration", {"pass": True})["pass"])
    assert [e["degree"] for e in degrees] == sorted(list(b) for members, _ in results for b in members)
    assert all(pg["r"] <= pages for e in degrees for pg in e["pages"] if pages is not None)
    assert files[f"pages_{variant}.json"] == reference_dumps({"variant": variant, "degrees": degrees})
    assert dumps(payload) == reference_dumps(plain(payload))
    if variant == "1a" and problem.n == 3:
        inf = plain(payload["infinity_filtration"])
        assert [e["degree"] for e in inf["degrees"]] == [e["degree"] for e in degrees]
        assert inf["failures"] == [e for e in inf["degrees"] if not e["pass"]]


def test_a_class_run_shared_by_an_orbit_is_listed_under_each_classes_members():
    """The classes of one orbit share one class run object: ``assemble_unit``
    writes each class's own members into ``pages_V.json`` and the failures,
    trims the pages in what it writes only, and leaves the object as it was."""
    problem = CechProblem.from_text(PrimeField(65537), 2, [["x1"], ["x2"]],
                                    window=((-1, -1), (1, 1)))
    shared = ClassRun([Page(r, {(0, 1): 1}, {}) for r in range(4)], 1,
                      [{"p": 0, "q": 1, "got": 1, "want": 0}], [])
    other = ClassRun([Page(r, {}, {}) for r in range(4)], 1, [], [])
    before = copy.deepcopy(shared)
    members = [[(-1, -1), (1, 1)], [(0, 0)], [(-1, 1), (0, 1), (1, -1)]]
    results = [(members[0], (shared, None)), (members[1], (other, None)),
               (members[2], (shared, None))]
    payload, files = cli.assemble_unit(problem, "mvss:1b", 2, results)
    assert shared == before
    assert [f["degree"] for f in payload["failures"]] == [[-1, -1], [1, 1], [-1, 1], [0, 1],
                                                          [1, -1]]
    assert payload["summary"] == "variant 1b: 6 degrees in 3 classes, FAIL (5 mismatches)"
    listed = json.loads(files["pages_1b.json"])["degrees"]
    assert [e["degree"] for e in listed] == sorted(list(b) for m in members for b in m)
    for e in listed:
        assert [pg["r"] for pg in e["pages"]] == [0, 1, 2]
        assert e["e1_check"]["pass"] == (tuple(e["degree"]) in members[1])


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

