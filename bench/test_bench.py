"""Self-tests of the benchmark harness.

    python -m pytest bench -q

Every workload runs at its tiny size, in this process, through the same
measuring code the child process uses.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARATION = run.load_declaration()
NAMES = [w["name"] for w in DECLARATION["workloads"]]
SIM_WORKLOADS = ("fig08_serial", "fig08_warm", "scenarios")


@pytest.fixture(scope="module")
def tiny_docs():
    """Each workload at its tiny size: one timed and one traced round."""
    docs = {}
    for name in NAMES:
        workload = workloads.make(name, seed=3, tiny=True)
        try:
            workload.setup()
            docs[name] = child.measure(workload, seconds=0.0, trace=True)
        finally:
            workload.close()
    return docs


def test_every_declared_metric_is_measured_with_its_unit(tiny_docs):
    for name, doc in tiny_docs.items():
        assert doc["failed"] == 0 and not doc["problems"], (name, doc["problems"])
        values = dict(doc["values"], setup_s=1.0, peak_rss_mb=1.0)
        for kind in ("end_to_end", "per_layer"):
            metrics = run.assemble(DECLARATION[kind], values)
            assert list(metrics) == [m["name"] for m in DECLARATION[kind]]
            for m in DECLARATION[kind]:
                assert metrics[m["name"]]["unit"] == m["unit"]
        assert doc["values"]["wall_s"] > 0 and doc["values"]["cpu_s"] > 0


def test_fig08_digests_agree_across_executors_cache_and_tracing(tiny_docs):
    digests = {tiny_docs[n]["digest"] for n in ("fig08_serial", "fig08_warm", "fig08_process")}
    assert len(digests) == 1 and None not in digests
    for name in SIM_WORKLOADS + ("fig08_process",):
        rounds = tiny_docs[name]["rounds"]
        assert {r["traced"] for r in rounds} == {False, True}
        assert {r["digest"] for r in rounds} == {tiny_docs[name]["digest"]}


def test_ledger_accounts_for_the_traced_time(tiny_docs):
    for name in SIM_WORKLOADS:
        led = tiny_docs[name]["ledger"]
        accounted = sum(v["self_s"] for v in led["layers"].values()) + led["unattributed_s"]
        assert abs(accounted / led["wall_s"] - 1.0) <= 0.05, name
        assert led["unattributed_s"] <= 0.10 * led["wall_s"], name


def test_tracer_restores_the_original_functions_even_when_the_round_raises():
    tracer = ledger.Tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer._patches()]
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(vars(o)[a] is not f for o, a, f in originals)
            raise RuntimeError("round failed")
    assert all(vars(o)[a] is f for o, a, f in originals)


def test_a_round_that_raises_is_counted_as_failed():
    class Broken(workloads.Workload):
        name = "broken"

        def round(self):
            raise RuntimeError("kaput")

        def ops_per_round(self):
            return 7

    doc = child.measure(Broken(), seconds=0.0, trace=False)
    assert doc["attempted"] == doc["failed"] == 7
    assert "kaput" in doc["problems"][0]


def test_a_child_that_raises_is_reported_failed(tmp_path):
    out = run.run_child(
        [sys.executable, "-c", "raise SystemExit('boom')"], 30.0, dict(os.environ), tmp_path / "log"
    )
    assert out.result is None and "status 1" in out.error and "boom" in out.error


def test_a_child_that_hangs_is_killed_with_its_descendants_within_the_timeout(tmp_path):
    code = (
        "import subprocess, sys, time\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(600)'])\n"
        "print('READY', flush=True)\n"
        "time.sleep(600)\n"
    )
    t0 = time.monotonic()
    out = run.run_child([sys.executable, "-c", code], 3.0, dict(os.environ), tmp_path / "log")
    assert time.monotonic() - t0 < 20.0
    assert out.ready_s is not None and "timed out" in out.error
    assert run._group_members(out.pid) == []


def _final_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_driver_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "scenarios", "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _final_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARATION["end_to_end"]
    }


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig08_serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert _final_json(proc.stdout) is None


def test_compare_verdicts():
    same = [(s, 1.0 + 0.001 * s) for s in range(10)]
    assert compare.verdict(same, same, "lower", 0.1) == "unchanged"
    slower = [(s, v * 1.3) for s, v in same]
    assert compare.verdict(same, slower, "lower", 0.1) == "regressed"
    faster = [(s, v * 0.7) for s, v in same]
    assert compare.verdict(same, faster, "lower", 0.1) == "improved"
    noisy = [(s, 1.0 + (0.5 if s % 2 else 0.0)) for s in range(10)]
    assert compare.verdict(same, noisy, "lower", 0.1) == "unresolved"
