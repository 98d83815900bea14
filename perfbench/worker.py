"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py TASKFILE SPAWN_NS [--trace]

``TASKFILE`` holds ``{"workload": ..., "tasks": [...]}`` as written by
``run.py``; ``SPAWN_NS`` is ``time.monotonic_ns()`` in the parent just
before it started this process (the clock is system-wide), so set-up time
counts interpreter start.  Set-up imports the library and builds its
objects from the task inputs; then every task runs once, in order, timed
on its own, with :func:`calibrate` before the first task and after each.
The last line of standard output is a JSON object with the answers, the
timings, the calibrations, the peak RSS and, with ``--trace``, the spans.

    python3 perfbench/worker.py --cli-child ARGV_JSON

runs one CLI call in-process for the traced ``cli`` pass: it times
``cli.main(argv)`` and reports the spans and whether numpy was left
loaded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CLI_TIMEOUT_S = 120
CALIBRATION_LOOPS = 200_000


def child_env() -> dict:
    """Environment of every process the benchmark starts: the library from
    ``src``, and no threads.  The library never calls BLAS, but numpy's
    OpenBLAS starts a thread pool on import, and on a shared 2-core
    machine that start-up time wanders by tens of milliseconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["NODALCODES_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python integer loop.

    The machine is shared and its speed for one process drifts by up to
    half within minutes; the loop is timed before the first task and
    after each task so run.py can scale task times to a reference speed.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def _peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- set-up: library objects from the task inputs ---------------------------


def _setup(workload: str, tasks: list) -> list:
    if workload == "cli":
        return tasks
    import nodalcodes as nc

    if workload == "classify":
        return tasks
    if workload == "scan":
        return [
            nc.SymmetricLinearMatrix(t["prime"], tuple(tuple(r) for r in t["coefficients"]))
            for t in tasks
        ]
    if workload == "rank":
        built = []
        for t in tasks:
            field = nc.PrimeField(t["prime"]) if t["prime"] else nc.QQ
            built.append(nc.NodeConfiguration(t["degree"], field, tuple(map(tuple, t["points"]))))
        return built
    raise ValueError(f"unknown workload {workload!r}")


# --- one task each: the library call and the answer it gave ------------------


def _classify(mu):
    import nodalcodes as nc

    table = nc.classify_quartic_codes(mu)
    return [[e.profile, e.dim, e.canonical.hex()] for e in table.entries]


def _scan(matrix):
    import nodalcodes as nc

    result = nc.scan_nodes_fp(matrix)
    answer = {"points": [list(pt) for pt in result.points], "degenerate": result.degenerate}
    if not result.degenerate and len(result.points) == 10:
        cert = nc.no_quadric_certificate(result.points, result.prime)
        answer["certificate"] = {"rank": cert.rank, "certified": cert.certified}
    return answer


def _rank(task, cfg):
    import nodalcodes as nc

    if task["call"] == "defect_from_nodes":
        report = nc.defect_from_nodes(cfg)
        return {"dim": report.dim_m, "defect": report.defect}
    return {"dim": nc.vanishing_dimension(cfg, task["form_degree"])}


def _cli(task):
    argv = [sys.executable, "-m", "nodalcodes.cli", *task["argv"]]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=child_env(), timeout=CLI_TIMEOUT_S
    )
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _cli_traced(task):
    argv = [sys.executable, os.path.abspath(__file__), "--cli-child", json.dumps(task["argv"])]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=child_env(), timeout=CLI_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced CLI child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: str, tasks: list, spawn_ns: int, trace: bool) -> dict:
    tracer = None
    if trace and workload != "cli":
        import nodalcodes  # noqa: F401  (install rebinds loaded modules only)
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    objects = _setup(workload, tasks)
    setup_ns = time.monotonic_ns()
    cal = [calibrate()]
    results = []
    for index, (task, obj) in enumerate(zip(tasks, objects)):
        if tracer is not None:
            tracer.task = index
        start = time.perf_counter()
        try:
            if workload == "classify":
                answer = _classify(obj)
            elif workload == "scan":
                answer = _scan(obj)
            elif workload == "rank":
                answer = _rank(task, obj)
            else:
                answer = _cli_traced(task) if trace else _cli(task)
            error = None
        except Exception:  # a failed task is recorded and the pass goes on
            answer, error = None, traceback.format_exc(limit=5)
        results.append({"s": time.perf_counter() - start, "answer": answer, "error": error})
        cal.append(calibrate())
    out = {
        "pid": os.getpid(),
        "setup_s": (setup_ns - spawn_ns) / 1e9,
        "cal": cal,
        "results": results,
        "peak_rss_mib": _peak_rss_mib(
            resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        ),
    }
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def cli_child(argv: list[str]) -> dict:
    """One in-process CLI call with the library traced."""
    import nodalcodes.cli as cli
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.task = 0
    tracing.install(tracer)
    stdout, stderr = io.StringIO(), io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse paths that bypass main's handler
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what an uncaught error looks like to a CLI user
            traceback.print_exc()
            code = 1
    main_s = time.perf_counter() - t1
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "main_s": main_s,
        "numpy_loaded": "numpy" in sys.modules,
        "trace": tracer.export(),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cli-child"]:
        print(json.dumps(cli_child(json.loads(argv[1]))))
        return 0
    task_file, spawn_ns = argv[0], int(argv[1])
    with open(task_file, encoding="utf-8") as fh:
        spec = json.load(fh)
    print(json.dumps(run_pass(spec["workload"], spec["tasks"], spawn_ns, "--trace" in argv[2:])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
