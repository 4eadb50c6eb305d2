"""Command line front end: job parsing, outputs, exit codes, determinism."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cechmv import InternalCheckError, SpectralSequence, cech, cli, mvss
from cechmv.cli import main

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


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
def test_example_jobs_match_recorded_digests(tmp_path, name, jobs):
    out = tmp_path / "out"
    assert main(["compute", str(JOBS_DIR / f"{name}.json"), "--out", str(out),
                 "--jobs", jobs]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == EXAMPLE_DIGESTS[name]


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


def test_internal_error_names_first_failing_class(tmp_path, monkeypatch):
    # the classes of (-1,0) and (0,-1) have variant-1a totals {1: 1, 2: 2};
    # the class of (-1,-1) comes first and must not be blamed
    original = SpectralSequence._check_page

    def failing(self, page):
        if self.fc.total.dims == {1: 1, 2: 2}:
            raise InternalCheckError(f"planted failure on page {page.r}")
        original(self, page)

    monkeypatch.setattr(SpectralSequence, "_check_page", failing)
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
