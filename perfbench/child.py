"""One measured `cechmv` process; started fresh by `run.py` for every sample.

    child.py setup RESULT JOB              time `import cechmv.cli` + `load_job`
    child.py job RESULT JOB OUT JOBS       time `cechmv compute --jobs JOBS`
    child.py trace RESULT JOB OUT          traced `cechmv compute --jobs 1`

Timings start after the interpreter is up; for `job` and `trace` also after
`cechmv.cli` is imported.  The result is a JSON object written to RESULT.
"""

import json
import sys
import time


def _cpu(resource) -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    mode, result_path, job = argv[:3]
    start = time.perf_counter()
    import cechmv.cli as cli

    if mode == "setup":
        cli.load_job(job)
        result = {"setup_s": time.perf_counter() - start}
    elif mode == "job":
        import resource

        out, jobs = argv[3], argv[4]
        cpu0, kids0 = _cpu(resource)
        t0 = time.perf_counter()
        rc = cli.main(["compute", job, "--out", out, "--jobs", jobs])
        wall = time.perf_counter() - t0
        cpu1, kids1 = _cpu(resource)
        result = {
            "rc": rc,
            "wall_s": wall,
            "cpu_s": cpu1 - cpu0,
            "children_cpu_s": kids1 - kids0,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    elif mode == "trace":
        from tracer import ROOT, Tracer

        out = argv[3]
        tracer = Tracer()
        tracer.install()
        rc = tracer.wrap(cli.main, ROOT)(["compute", job, "--out", out, "--jobs", "1"])
        tracer.dump(result_path + ".spans")
        result = {"rc": rc}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
