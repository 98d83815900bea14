#!/usr/bin/env python3
"""The nodalcodes benchmark: four workloads, one command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it needs ``src/nodalcodes`` there and
builds nothing.  Workloads (why each exists is in ``BENCHMARK.json``):

- ``classify``: ``classify_quartic_codes(mu)`` for mu = 6..16;
- ``scan``: ``scan_nodes_fp`` on symmetric linear matrices at p = 101 and
  211, with ``no_quadric_certificate`` on ten-point loci;
- ``rank``: ``defect_from_nodes`` and ``vanishing_dimension`` on node
  configurations over Q and F_p, full rank and rank-deficient;
- ``cli``: ``python -m nodalcodes.cli`` calls, valid and malformed.

Load is a closed loop with one task in flight: the benchmark starts one
worker process per pass (``worker.py``), waits for it, and starts the
next.  Every pass runs in a fresh worker, so process-wide caches start
cold, as they do for each CLI user.  Children get ``NODALCODES_THREADS=1``
and one OpenBLAS/OpenMP thread (``worker.child_env``).
Inputs come from ``--seed`` (``inputs.py``) and every answer is checked by
``oracle.py``, which never calls the library; oracle work happens in this
process, outside every timed region.

The machine the benchmark was tuned on is shared, and the speed it gives
one process drifts by up to half over minutes.  So the worker times a
fixed pure-Python loop before the first task and after each task, and
every time reported is scaled to the speed at which that loop takes
``REF_CAL_S`` (see ``task_scales``).  The report also prints the times as
measured.

With ``--trace 0`` a run makes ``round(S / NOMINAL_PASS_S)`` passes (at
least ``MIN_PASSES``) and prints the end-to-end metrics.  With
``--trace 1`` it makes one pass without wrappers and ``TRACED_PASSES``
traced passes (``tracer.py``) and prints the per-layer metrics, each with
the end-to-end metric it should move, plus the tracing overhead.  A
report goes to standard error; the last line of standard output is the
JSON result.  Records and spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs
import oracle
import tracer as tracing
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("classify", "scan", "rank", "cli")
# seconds one pass took at the seed on a 2-core x86 box; the pass count
# depends only on --seconds, so the sample count and the tail percentile
# stay the same from run to run and from commit to commit
NOMINAL_PASS_S = {"classify": 5.0, "scan": 9.0, "rank": 6.5, "cli": 4.2}
MIN_PASSES = {"classify": 2, "scan": 3, "rank": 4, "cli": 2}  # >= 20 calls
TRACED_PASSES = 2
PROBES = 5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
WORKER_TIMEOUT_S = 150
# seconds worker.calibrate() takes at the reference speed; every time the
# benchmark reports is scaled to that speed (see task_scales)
REF_CAL_S = 0.020


# --- passes ----------------------------------------------------------------


def make_tasks(workload: str, seed: int) -> list:
    if workload == "classify":
        return inputs.classify_inputs(seed)
    if workload == "scan":
        return inputs.scan_inputs(seed)
    if workload == "rank":
        return inputs.rank_inputs(seed)
    return inputs.cli_inputs(seed, os.path.join(OUT, f"cli-seed{seed}"))


def task_name(workload: str, task) -> str:
    if workload == "classify":
        return f"mu={task}"
    if workload == "scan":
        return f"{task['kind']}@p{task['prime']}"
    if workload == "rank":
        return f"{task['kind']}-n{len(task['points'])}-b{task['degree']}"
    return task["name"]


def run_worker(task_file: str, trace: bool) -> dict:
    """One pass in a fresh worker; a worker that dies yields ``{"crash": why}``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), task_file]
    cmd += [str(time.monotonic_ns())] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=worker.child_env(), timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"worker exceeded {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(lines[-1])


# --- checks ----------------------------------------------------------------


def valid_input(workload: str, task) -> bool:
    """Whether the task has an answer to check (malformed CLI input has none)."""
    return workload != "cli" or task["exit"] == [0]


def check_pass(workload: str, tasks: list, result: dict) -> list[dict]:
    """One entry per failed task: an exception, a dead worker, or an answer
    (exit code, traceback) the oracle rejects."""
    failures = []
    for i, task in enumerate(tasks):
        name = task_name(workload, task)
        if "crash" in result:
            reason = result["crash"]
        elif result["results"][i]["error"]:
            reason = "exception: " + result["results"][i]["error"].strip().splitlines()[-1]
        else:
            problems = oracle.CHECKS[workload](task, result["results"][i]["answer"])
            if not problems:
                continue
            reason = "; ".join(problems)
        failures.append({"task": name, "reason": reason, "valid_input": valid_input(workload, task)})
    return failures


def check_small_prime(seed: int, task_file: str) -> tuple[int, list[dict]]:
    """Brute-force completeness of the scan at p = CHECK_PRIME, in an
    untimed worker: (tasks attempted, failures).

    Compares point sets only: at this prime the coplanar locus has
    p + 7 = 20 points, under the library's degeneracy threshold of 50."""
    tasks = inputs.scan_check_inputs(seed)
    write_tasks(task_file, "scan", tasks)
    result = run_worker(task_file, trace=False)
    failures = []
    for i, task in enumerate(tasks):
        name = f"brute-force {task['kind']}@p{task['prime']}"
        if "crash" in result:
            reason = result["crash"]
        elif result["results"][i]["error"]:
            reason = "exception: " + result["results"][i]["error"].strip().splitlines()[-1]
        elif {tuple(pt) for pt in result["results"][i]["answer"]["points"]} != oracle.brute_force_points(task):
            reason = "point set differs from a brute-force pass over P^3(F_p)"
        else:
            continue
        failures.append({"task": name, "reason": reason, "valid_input": True})
    return len(tasks), failures


def write_tasks(path: str, workload: str, tasks: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "tasks": tasks}, fh)


# --- end-to-end metrics ----------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of PERCENTILES with at least ten
    samples beyond it, nearest-rank."""
    n = len(samples)
    eligible = [q for q in PERCENTILES if n * (100 - q) / 100 >= 10]
    q = eligible[-1] if eligible else 50
    return q, sorted(samples)[max(0, math.ceil(q / 100 * n) - 1)]


def task_scales(result: dict) -> list[float]:
    """Factor that brings each task's time to the reference speed.

    The machine is shared, and the speed it gives one process drifts by
    up to half over minutes.  A task's factor is REF_CAL_S over the median
    of three calibrations: the one just before the task, the one just
    after it, and the median of the pass, so that one outlying
    calibration does not skew the task.
    """
    cal = result["cal"]
    mid = statistics.median(cal)
    return [REF_CAL_S / statistics.median((cal[i], cal[i + 1], mid)) for i in range(len(cal) - 1)]


def pass_times(result: dict) -> tuple[float, float, list[float]]:
    """(set-up, pass, per-task) seconds of one pass at the reference speed;
    set-up takes the first task's factor."""
    scales = task_scales(result)
    calls = [r["s"] * k for r, k in zip(result["results"], scales)]
    return result["setup_s"] * scales[0], sum(calls), calls


def end_to_end(workload: str, passes: list[dict]) -> tuple[dict, list[str]]:
    ok = [p for p in passes if "crash" not in p]
    times = [pass_times(p) for p in ok]
    calls = [c for _setup, _wall, task_calls in times for c in task_calls]
    q, tail_value = tail(calls)
    n = len(ok)

    def spread(values):
        return f"median of {n} passes, range {min(values):.4f}..{max(values):.4f}"

    setup = [t[0] for t in times]
    wall = [t[1] for t in times]
    rss = [p["peak_rss_mib"] for p in ok]
    raw_wall = [sum(r["s"] for r in p["results"]) for p in ok]
    cal = [c for p in ok for c in p["cal"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s", spread(setup)),
        "wall_s": (statistics.median(wall), "s", spread(wall)),
        "call_p50_s": (statistics.median(calls), "s", f"p50 of n={len(calls)} calls"),
        "call_tail_s": (tail_value, "s", f"p{q:g} of n={len(calls)} calls"),
        "peak_rss_mib": (statistics.median(rss), "MiB", spread(rss)),
    }
    lines = [f"  {k:<14} {v:>10.4f} {u:<4} {note}" for k, (v, u, note) in metrics.items()]
    lines.append(
        f"  times are at the reference speed; as measured: wall_s median "
        f"{statistics.median(raw_wall):.4f} s, calibration loop median "
        f"{statistics.median(cal) * 1000:.2f} ms against {REF_CAL_S * 1000:.0f} ms"
    )
    return {k: {"value": v, "unit": u} for k, (v, u, _note) in metrics.items()}, lines


# --- per-layer metrics -----------------------------------------------------


def _sum(summary: dict, prefix: str, field: str) -> float:
    return sum(
        v[field] for k, v in summary.items() if k == prefix or k.startswith(prefix + ".")
    )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name, unit, what it should move, value(summary, counts, probes)
LAYERS = (
    ("codes.apply_node_permutation.calls", "count", "wall_s on classify; not on scan or rank",
     lambda s, c, x: _sum(s, "codes.apply_node_permutation", "calls")),
    ("codes.apply_node_permutation.s", "s", "wall_s on classify; not on scan or rank",
     lambda s, c, x: _sum(s, "codes.apply_node_permutation", "s")),
    ("codes.column_transpositions.calls", "count", "wall_s on classify; not on scan or rank",
     lambda s, c, x: _sum(s, "codes.column_transpositions", "calls")),
    ("classify.mu16.s", "s", "wall_s on classify; not on scan or rank",
     lambda s, c, x: _sum(s, "classify.classify_quartic_codes.mu16", "s")),
    ("classify.self_s", "s", "wall_s on classify; not on scan or rank",
     lambda s, c, x: _sum(s, "classify.classify_quartic_codes", "self_s")),
    ("codes.canonical_form.calls", "count", "wall_s, peak_rss_mib on classify; call_p50_s on cli",
     lambda s, c, x: _sum(s, "codes.canonical_form", "calls")),
    ("codes.canonical_form.s", "s", "wall_s, peak_rss_mib on classify; call_p50_s on cli",
     lambda s, c, x: _sum(s, "codes.canonical_form", "s")),
    ("codes.weight_enumerator.s", "s", "wall_s, peak_rss_mib on classify; call_p50_s on cli",
     lambda s, c, x: _sum(s, "codes.weight_enumerator", "s")),
    ("linalg.bit_rref.calls", "count", "wall_s, peak_rss_mib on classify; call_p50_s on cli",
     lambda s, c, x: _sum(s, "linalg.bit_rref", "calls")),
    ("linalg.bit_rref.s", "s", "wall_s, peak_rss_mib on classify; call_p50_s on cli",
     lambda s, c, x: _sum(s, "linalg.bit_rref", "s")),
    ("classify.admissible_words_ext.count", "count", "wall_s, peak_rss_mib on classify",
     lambda s, c, x: c.get("classify.admissible_words_ext.count", 0)),
    ("classify.classes", "count", "wall_s, peak_rss_mib on classify (23 for mu = 6..16)",
     lambda s, c, x: c.get("classify.classes", 0)),
    ("codes.self_s", "s", "wall_s on classify",
     lambda s, c, x: _sum(s, "codes", "self_s")),
    ("symmetroid.scan_nodes_fp.s", "s", "wall_s, peak_rss_mib on scan; not on classify or rank",
     lambda s, c, x: _sum(s, "symmetroid.scan_nodes_fp", "s")),
    ("symmetroid.scan_nodes_fp.p101.s", "s", "wall_s, peak_rss_mib on scan; not on classify or rank",
     lambda s, c, x: _sum(s, "symmetroid.scan_nodes_fp.p101", "s")),
    ("symmetroid.scan_nodes_fp.p211.s", "s", "wall_s, peak_rss_mib on scan; not on classify or rank",
     lambda s, c, x: _sum(s, "symmetroid.scan_nodes_fp.p211", "s")),
    ("symmetroid.projective_points", "count", "wall_s, peak_rss_mib on scan (computed sum of p^3+p^2+p+1)",
     lambda s, c, x: c.get("symmetroid.projective_points", 0)),
    ("symmetroid.ns_per_point", "ns", "wall_s on scan",
     lambda s, c, x: _ratio(_sum(s, "symmetroid.scan_nodes_fp", "s") * 1e9,
                            c.get("symmetroid.projective_points", 0))),
    ("symmetroid.points_found", "count", "wall_s on scan",
     lambda s, c, x: c.get("symmetroid.points_found", 0)),
    ("symmetroid.found_per_point", "ratio", "wall_s on scan (useful outcomes per point examined)",
     lambda s, c, x: _ratio(c.get("symmetroid.points_found", 0),
                            c.get("symmetroid.projective_points", 0))),
    ("symmetroid.self_s", "s", "wall_s on scan",
     lambda s, c, x: _sum(s, "symmetroid", "self_s")),
    ("symmetroid.no_quadric_certificate.calls", "count", "small share of wall_s on scan",
     lambda s, c, x: _sum(s, "symmetroid.no_quadric_certificate", "calls")),
    ("symmetroid.no_quadric_certificate.s", "s", "small share of wall_s on scan",
     lambda s, c, x: _sum(s, "symmetroid.no_quadric_certificate", "s")),
    ("symmetroid.certified", "count", "small share of wall_s on scan",
     lambda s, c, x: c.get("symmetroid.certified", 0)),
    ("linalg.rank_and_rref.fp.calls", "count", "small share of wall_s on scan; F_p part of wall_s on rank",
     lambda s, c, x: _sum(s, "linalg.rank_and_rref.fp", "calls")),
    ("linalg.rank_and_rref.fp.s", "s", "small share of wall_s on scan; F_p part of wall_s on rank",
     lambda s, c, x: _sum(s, "linalg.rank_and_rref.fp", "s")),
    ("linalg.rank_and_rref.q.calls", "count", "wall_s on rank",
     lambda s, c, x: _sum(s, "linalg.rank_and_rref.q", "calls")),
    ("linalg.rank_and_rref.q.s", "s", "wall_s on rank",
     lambda s, c, x: _sum(s, "linalg.rank_and_rref.q", "s")),
    ("linalg.matrix_entries.q", "count", "wall_s on rank (computed sum of m*n)",
     lambda s, c, x: c.get("linalg.matrix_entries.q", 0)),
    ("linalg.matrix_entries.fp", "count", "wall_s on rank and scan (computed sum of m*n)",
     lambda s, c, x: c.get("linalg.matrix_entries.fp", 0)),
    ("linalg.exact_rank.s", "s", "wall_s on rank",
     lambda s, c, x: _sum(s, "linalg.exact_rank", "s")),
    ("linalg.modular_rank.s", "s", "wall_s on rank",
     lambda s, c, x: _sum(s, "linalg.modular_rank", "s")),
    ("linalg.nullspace_basis.s", "s", "wall_s on rank",
     lambda s, c, x: _sum(s, "linalg.nullspace_basis", "s")),
    ("linalg.self_s", "s", "wall_s on rank (holds the cost of fields)",
     lambda s, c, x: _sum(s, "linalg", "self_s")),
    ("nodes.evaluation_matrix.s", "s", "wall_s on rank",
     lambda s, c, x: _sum(s, "nodes.evaluation_matrix", "s")),
    ("nodes.vanishing_dimension.s", "s", "wall_s on rank",
     lambda s, c, x: _sum(s, "nodes.vanishing_dimension", "s")),
    ("nodes.NodeConfiguration.s", "s", "wall_s and setup_s on rank",
     lambda s, c, x: _sum(s, "nodes.NodeConfiguration", "s")),
    ("nodes.self_s", "s", "wall_s on rank (holds the cost of fields)",
     lambda s, c, x: _sum(s, "nodes", "self_s")),
    ("cli.interpreter_s", "s", "call_p50_s, call_tail_s on cli; setup_s on classify and rank",
     lambda s, c, x: x["interpreter_s"]),
    ("cli.import_s", "s", "call_p50_s, call_tail_s on cli; setup_s on classify and rank",
     lambda s, c, x: x["import_s"]),
    ("cli.main_s", "s", "call_p50_s, call_tail_s on cli",
     lambda s, c, x: x.get("main_s", 0.0)),
    ("cli.numpy_loaded", "count", "call_p50_s, call_tail_s on cli; setup_s on classify and rank",
     lambda s, c, x: x.get("numpy_loaded", 0)),
    ("series.symmetroid_hilbert_series.s", "s", "call_p50_s on cli",
     lambda s, c, x: _sum(s, "series.symmetroid_hilbert_series", "s")),
    ("bounds.bound_report.s", "s", "call_p50_s on cli",
     lambda s, c, x: _sum(s, "bounds.bound_report", "s")),
)


def _merge(traces: list[tuple[dict, object]]) -> tuple[dict, dict]:
    """Sum span summaries and counts over (trace, task -> scale) pairs."""
    summary: dict = {}
    counts: dict = {}
    for trace, scale in traces:
        for name, v in tracing.summarize(trace, scale).items():
            acc = summary.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return summary, counts


def layer_values(workload: str, tasks: list, result: dict, probes: dict) -> dict:
    """Per-layer values of one traced pass."""
    extra = dict(probes)
    scales = task_scales(result)
    if workload == "cli":
        # one child per call; its spans all carry task 0
        answered = [(r["answer"], k) for r, k in zip(result["results"], scales) if r["answer"]]
        traces = [(a["trace"], lambda _task, k=k: k) for a, k in answered]
        extra["main_s"] = statistics.median(a["main_s"] * k for a, k in answered)
        # subcommands (first argument) that leave numpy in sys.modules
        extra["numpy_loaded"] = len(
            {t["argv"][0] for t, r in zip(tasks, result["results"])
             if r["answer"] and r["answer"]["numpy_loaded"]}
        )
    else:
        traces = [(result["trace"], lambda task: scales[0] if task is None else scales[task])]
    summary, counts = _merge(traces)
    return {name: fn(summary, counts, extra) for name, _unit, _moves, fn in LAYERS}


def task_breakdown(workload: str, tasks: list, result: dict) -> list[str]:
    """Per task of a traced pass: its time and its most-called span."""
    lines = []
    for i, (task, r, k) in enumerate(zip(tasks, result["results"], task_scales(result))):
        if workload == "cli":
            trace, mine = (r["answer"] or {}).get("trace"), (lambda _t: True)
        else:
            trace, mine = result["trace"], (lambda t, i=i: t == i)
        calls: dict[str, int] = {}
        for span in trace["spans"] if trace else ():
            if mine(span[5]):
                calls[span[1]] = calls.get(span[1], 0) + 1
        for name, _parent, t, n, _ns, _self in trace["rollups"] if trace else ():
            if mine(t):
                calls[name] = calls.get(name, 0) + n
        top = max(calls.items(), key=lambda kv: kv[1], default=("no spans", 0))
        lines.append(f"    {task_name(workload, task):<28} {r['s'] * k:9.4f} s  "
                     f"most-called span {top[0]} ({top[1]} calls)")
    return lines


def probe(code: str | None) -> float:
    """Median over PROBES fresh interpreters, at the reference speed: wall
    time of ``python -c pass``, or the import time of ``nodalcodes.cli``
    measured inside the child."""
    samples = []
    before = worker.calibrate()
    for _ in range(PROBES):
        if code is None:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=worker.child_env(), check=True)
            samples.append(time.perf_counter() - start)
        else:
            out = subprocess.run(
                [sys.executable, "-c", code], env=worker.child_env(),
                capture_output=True, text=True, check=True,
            )
            samples.append(float(out.stdout))
    return statistics.median(samples) * 2 * REF_CAL_S / (before + worker.calibrate())


def per_layer(workload: str, tasks: list, untraced: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over the traced passes), the tracing
    overhead, and the report lines that say what each should move."""
    probes = {"interpreter_s": probe(None), "import_s": probe(IMPORT_PROBE)}
    per_pass = [layer_values(workload, tasks, p, probes) for p in traced]
    values = {name: statistics.median(v[name] for v in per_pass) for name, *_ in LAYERS}
    untraced_wall = pass_times(untraced)[1]
    traced_wall = statistics.median(pass_times(p)[1] for p in traced)
    overhead = traced_wall - untraced_wall
    lines = [f"  per-layer metrics, median of {len(per_pass)} traced passes "
             f"(spans taken outside the library; fields has no spans of its own, "
             f"its cost is in the self time of linalg and nodes):"]
    for name, unit, moves, _fn in LAYERS:
        if unit == "count":
            same = len({v[name] for v in per_pass}) == 1
            mark = f"exact over {len(per_pass)} passes" if same else "varies"
        elif unit == "s" and traced_wall:
            mark = f"{values[name] / traced_wall:.1%} of traced wall_s"
        else:
            mark = ""
        lines.append(f"  {name:<40} {values[name]:>14.6g} {unit:<6} -> {moves}  [{mark}]")
    lines.append("  per task, first traced pass:")
    lines += task_breakdown(workload, tasks, traced[0])
    lines.append(f"  trace.overhead_s {overhead:.4f} s (traced wall_s {traced_wall:.4f} "
                 f"minus untraced wall_s {untraced_wall:.4f}, at the reference speed)")
    units = {name: unit for name, unit, *_ in LAYERS}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, lines


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import nodalcodes.cli; "
    "print(time.perf_counter() - t)"
)


# --- provenance ------------------------------------------------------------


def provenance() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nodalcodes")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "machine_settings": "unchanged: no CPU pinning, governor change or cache drop",
        "load": "closed loop, one task in flight, one worker process per pass, "
                "NODALCODES_THREADS=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1",
    }


# --- main ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nodalcodes", "__init__.py")):
        print(f"perfbench: {ROOT} has no src/nodalcodes; run it in a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    prov = provenance()
    w, stem = args.workload, os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tasks = make_tasks(w, args.seed)
    task_file = stem + ".tasks.json"
    write_tasks(task_file, w, tasks)

    if args.trace:
        plan = [False] + [True] * TRACED_PASSES
    else:
        plan = [False] * max(MIN_PASSES[w], round(args.seconds / NOMINAL_PASS_S[w]))
    passes = [run_worker(task_file, trace) for trace in plan]
    if all("crash" in p for p in passes):
        print(f"perfbench: every worker failed: {passes[0]['crash']}", file=sys.stderr)
        return 1
    failures = [f for p in passes for f in check_pass(w, tasks, p)]
    attempted = len(tasks) * len(passes)
    if w == "scan":
        checked, check_failures = check_small_prime(args.seed, stem + ".check.json")
        attempted += checked
        failures += check_failures
    report = [
        f"perfbench {w} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
        f"{len({p.get('pid') for p in passes})} fresh workers, {len(tasks)} tasks per pass",
        f"  provenance {json.dumps(prov)}",
    ]
    record = {"args": vars(args), "provenance": prov, "failures": failures,
              "passes": [{k: p.get(k) for k in ("pid", "setup_s", "cal", "peak_rss_mib", "crash")}
                         | {"task_s": [r["s"] for r in p.get("results", [])]} for p in passes]}
    if args.trace:
        traced = [p for p, t in zip(passes, plan) if t and "crash" not in p]
        if not traced or "crash" in passes[0]:
            print("perfbench: a pass of the traced run failed; no per-layer metrics", file=sys.stderr)
            return 1
        metrics, lines = per_layer(w, tasks, passes[0], traced)
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump([p["results"] if w == "cli" else p["trace"] for p in traced], fh)
    else:
        metrics, lines = end_to_end(w, passes)
    report += lines
    report.append(f"  error_rate     {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    grouped = collections.Counter((f["task"], f["reason"]) for f in failures)
    for (name, reason), n in grouped.items():
        report.append(f"    failed {n}x {name}: {reason}")
    correct = not any(f["valid_input"] for f in failures)
    record["metrics"] = metrics
    with open(stem + ".record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(report), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
