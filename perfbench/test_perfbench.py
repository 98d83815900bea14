"""Tests of the benchmark itself: its checks must catch bad answers, and
what it prints must match ``BENCHMARK.json``.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import inputs
import oracle
import run
from modp import rank_mod_p

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _pass(answers, errors=None):
    errors = errors or [None] * len(answers)
    return {"results": [{"s": 0.1, "answer": a, "error": e} for a, e in zip(answers, errors)]}


def _error_rate(workload, tasks, result):
    return len(run.check_pass(workload, tasks, result)) / len(tasks)


def _golden(mu):
    return [[p, int(p.split(",")[1]), f"{i:02x}"] for i, p in enumerate(sorted(inputs.GOLDEN_PROFILES[mu]))]


def _cli_tasks(tmp_path):
    return {t["name"]: t for t in inputs.cli_inputs(0, str(tmp_path))}


def _bounds_answer(task, **overrides):
    payload = {k: 0 for k in task["keys"]}
    payload.update(task["values"])
    answer = {"exit": 0, "stdout": json.dumps(payload), "stderr": ""}
    answer.update(overrides)
    return answer


def test_wrong_classification_raises_error_rate():
    tasks = [12, 13]
    good = _pass([_golden(12), _golden(13)])
    assert _error_rate("classify", tasks, good) == 0
    dropped = _pass([_golden(12)[:-1], _golden(13)])
    assert _error_rate("classify", tasks, dropped) == 0.5
    same_canonical = [row[:2] + ["00"] for row in _golden(13)]
    assert _error_rate("classify", tasks, _pass([_golden(12), same_canonical])) == 0.5


def test_wrong_rank_answer_raises_error_rate():
    task = inputs.node_configuration("cubic", 20, 6, random.Random(0))
    good = math.comb(task["form_degree"] + 3, 3) - task["expected_rank"]
    assert _error_rate("rank", [task], _pass([{"dim": good}])) == 0
    assert _error_rate("rank", [task], _pass([{"dim": good + 1}])) == 1


def test_wrong_scan_answer_raises_error_rate():
    task = inputs.web_matrix(inputs.CHECK_PRIME, random.Random(0), coplanar=False)
    points = [list(pt) for pt in task["expected_points"]]
    rows = [[pt[i] * pt[j] % task["prime"] for i, j in inputs.UPPER_TRIANGLE] for pt in points]
    cert = {"rank": rank_mod_p(rows, task["prime"]), "certified": True}
    good = {"points": points, "degenerate": False, "certificate": cert}
    assert _error_rate("scan", [task], _pass([good])) == 0
    assert _error_rate("scan", [task], _pass([dict(good, points=points[:-1])])) == 1
    assert _error_rate("scan", [task], _pass([dict(good, certificate={"rank": 9, "certified": False})])) == 1


def test_unexpected_exit_code_raises_error_rate(tmp_path):
    task = _cli_tasks(tmp_path)["bounds"]
    assert _error_rate("cli", [task], _pass([_bounds_answer(task)])) == 0
    assert _error_rate("cli", [task], _pass([_bounds_answer(task, exit=2)])) == 1


def test_traceback_raises_error_rate(tmp_path):
    tasks = _cli_tasks(tmp_path)
    bounds, bad = tasks["bounds"], tasks["bad-degree"]
    traceback = "Traceback (most recent call last):\n  ...\nTypeError: boom\n"
    assert _error_rate("cli", [bounds], _pass([_bounds_answer(bounds, stderr=traceback)])) == 1
    clean = {"exit": 2, "stdout": "", "stderr": "error: branch degree must be even\n"}
    assert _error_rate("cli", [bad], _pass([clean])) == 0
    assert _error_rate("cli", [bad], _pass([dict(clean, stderr=traceback)])) == 1


def test_exception_and_dead_worker_count_as_failures():
    tasks = [6, 7]
    raised = _pass([None, _golden(7)], errors=["Traceback ...\nValueError: x", None])
    assert _error_rate("classify", tasks, raised) == 0.5
    assert _error_rate("classify", tasks, {"crash": "worker exit -9"}) == 1


def test_malformed_cli_failures_do_not_mark_answers_incorrect(tmp_path):
    tasks = _cli_tasks(tmp_path)
    assert not run.valid_input("cli", tasks["bad-nodes"])
    assert run.valid_input("cli", tasks["bounds"])


def test_expected_scan_points_match_brute_force():
    rng = random.Random(1)
    for coplanar in (False, True):
        task = inputs.web_matrix(inputs.CHECK_PRIME, rng, coplanar=coplanar)
        assert set(task["expected_points"]) == oracle.brute_force_points(task)
        assert len(task["expected_points"]) == (inputs.CHECK_PRIME + 7 if coplanar else 10)


def test_inputs_depend_only_on_seed(tmp_path):
    assert inputs.scan_inputs(3) == inputs.scan_inputs(3)
    assert inputs.rank_inputs(3) == inputs.rank_inputs(3)
    assert inputs.scan_inputs(3) != inputs.scan_inputs(4)
    a = inputs.cli_inputs(3, str(tmp_path / "a"))
    b = inputs.cli_inputs(3, str(tmp_path / "b"))
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
    assert [t["name"] for t in a] == [t["name"] for t in b]


def test_times_are_scaled_to_the_reference_speed():
    result = _pass([None, None, None]) | {"setup_s": 0.3, "cal": [0.04, 0.04, 0.01, 0.02]}
    setup, wall, calls = run.pass_times(result)
    # medians of (before, after, pass median 0.03): 0.04, 0.03, 0.02
    assert calls == pytest.approx([0.1 * 0.02 / 0.04, 0.1 * 0.02 / 0.03, 0.1 * 0.02 / 0.02])
    assert setup == pytest.approx(0.3 * 0.02 / 0.04) and wall == sum(calls)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(108)]
    q, value = run.tail(samples)
    assert q == 90 and sum(s > value for s in samples) >= 10
    assert run.tail(samples[:40]) == (75, 29.0)


def test_declared_metrics_match_the_code():
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"] for m in bench["end_to_end"]}
    declared_layers = {m["name"] for m in bench["per_layer"]}
    e2e, _lines = run.end_to_end("classify", [_pass([_golden(6)]) | {
        "setup_s": 0.1, "cal": [0.02, 0.02], "peak_rss_mib": 30.0}])
    assert set(e2e) == declared_e2e
    assert {name for name, *_ in run.LAYERS} | {"trace.overhead_s"} == declared_layers
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for name in declared_e2e | declared_layers:
        assert NAME.fullmatch(name), name


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_printed_metric_names_are_declared():
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run_bench(run.ROOT, "--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name in result["metrics"]:
            assert NAME.fullmatch(name), name


def test_fails_without_the_library(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "classify", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
