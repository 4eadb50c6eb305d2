"""Tests of the benchmark's own code: `python3 -m pytest perfbench -q`."""

import json
import sys
from pathlib import Path

import pytest

import run
from tracer import SpanTree, Tracer

sys.path.insert(0, str(run.SRC))

TINY_JOB = {
    "field": {"prime": 65537},
    "variables": 2,
    "groups": [["x1"], ["x2"]],
    "window": [[-1, -1], [1, 1]],
    "tasks": ["cohomology", "verify34"],
}


def test_self_times_of_hand_built_tree():
    # root [0, 100] > a [10, 40] > b [20, 30];  root > c [50, 90] > c [60, 70]
    names = ["cli.main", "cech.a", "linalg.b", "spectral.c"]
    spans = [
        (0, 0, 100_000_000_000, -1),
        (1, 10_000_000_000, 40_000_000_000, 0),
        (2, 20_000_000_000, 30_000_000_000, 1),
        (3, 50_000_000_000, 90_000_000_000, 0),
        (3, 60_000_000_000, 70_000_000_000, 3),
    ]
    tree = SpanTree(names, spans)
    assert tree.self_time == pytest.approx([30.0, 20.0, 10.0, 30.0, 10.0])
    assert sum(tree.self_time) == pytest.approx(tree.dur[0])
    assert tree.roots() == [0]
    assert tree.inclusive({"spectral.c"}) == pytest.approx(40.0)  # nested once
    assert tree.inclusive({"cech.a"}, exclude={"linalg.b"}) == pytest.approx(20.0)
    assert tree.inclusive({"cli.main"}, exclude={"linalg.b", "spectral.c"}) == pytest.approx(50.0)
    assert tree.self_sum({"spectral.c"}) == pytest.approx(40.0)
    assert tree.count({"spectral.c"}) == 2
    assert tree.layer_self("cli") == pytest.approx(30.0)
    assert tree.layer_self("linalg") == pytest.approx(10.0)


def _workload(tmp_path: Path, expected=None) -> run.Workload:
    return run.Workload("tiny", TINY_JOB, expected, tmp_path / "tiny")


def test_passing_run_records_digests(tmp_path):
    w = _workload(tmp_path)
    res = w.job_sample(1)
    assert res is not None and res["rc"] == 0 and res["wall_s"] > 0
    assert set(w.expected) == {"report.json", "cohomology.csv"}
    assert (w.tally.attempted, w.tally.failed) == (1, 0)


def test_corrupted_output_byte_is_a_failed_run(tmp_path, monkeypatch):
    w = _workload(tmp_path)
    assert w.job_sample(1) is not None
    real = run.run_child

    def corrupting(args, limit, tmpdir):
        rc, err = real(args, limit, tmpdir)
        report = w.out / "report.json"
        data = bytearray(report.read_bytes())
        data[len(data) // 2] ^= 0x01
        report.write_bytes(bytes(data))
        return rc, err

    monkeypatch.setattr(run, "run_child", corrupting)
    assert w.job_sample(1) is None
    assert (w.tally.attempted, w.tally.failed) == (2, 1)
    assert "digest" in w.tally.reasons[0] or "report" in w.tally.reasons[0]


def test_failed_task_is_a_failed_run(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    report = {"pass": False, "results": {"verify34": {"pass": False}}}
    (out / "report.json").write_text(json.dumps(report))
    assert run.check_output(out, 0, {"verify34"}, None) == "task verify34 did not pass"
    assert run.check_output(out, 2, {"verify34"}, None) == "exit code 2"


def test_run_over_time_limit_is_a_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "JOB_LIMIT_S", 0.01)
    w = _workload(tmp_path)
    assert w.job_sample(1) is None
    assert (w.tally.attempted, w.tally.failed) == (1, 1)
    assert w.tally.reasons == ["timeout"]


def test_seeded_job_permutes_but_keeps_the_work():
    spec = json.loads((run.HERE / "workloads" / "page-heavy.json").read_text())
    assert run.make_job(spec, 0) == spec
    job = run.make_job(spec, 7)
    assert job == run.make_job(spec, 7)
    assert job != spec
    assert [len(g) for g in job["groups"]] == [len(g) for g in spec["groups"]]
    assert job["window"] == spec["window"]
    wide = json.loads((run.HERE / "workloads" / "wide-window.json").read_text())
    job = run.make_job(wide, 3)
    assert sorted(len(m) for g in job["groups"] for m in g) == sorted(
        len(m) for g in wide["groups"] for m in g)


def test_tracer_patches_every_binding_and_restores_them():
    import cechmv.cech
    import cechmv.cli
    import cechmv.mvss

    original = cechmv.cech.cech_multicomplex
    t = Tracer()
    t.install()
    try:
        for mod in (cechmv.cech, cechmv.cli, cechmv.mvss):
            assert mod.cech_multicomplex is not original
        assert cechmv.cech.rank is not cechmv.linalg.rank  # only the oracle's binding
    finally:
        t.uninstall()
    for mod in (cechmv.cech, cechmv.cli, cechmv.mvss):
        assert mod.cech_multicomplex is original
    assert cechmv.cech.rank is cechmv.linalg.rank


def test_traced_run_accounts_for_the_whole_job(tmp_path):
    w = _workload(tmp_path)
    assert w.job_sample(1) is not None
    m = w.trace_sample()
    assert m is not None and w.tally.failed == 0  # same digests as the untraced run
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.job_s"], abs=1e-6)
    layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layers == pytest.approx(m["trace.job_s"], abs=1e-6)
    assert m["cech.classes"] >= 1 and m["linalg.rref_calls"] > 0
    assert m["cli.task_s.cohomology"] > 0 and m["cli.task_s.les"] == 0


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(json.loads((run.HERE / "digests.json").read_text())) == set(run.WORKLOADS)
