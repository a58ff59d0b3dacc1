"""The repository benchmark: end-to-end metrics and a per-layer ledger.

One run of one workload (the form ``BENCHMARK.json`` declares)::

    python3 bench/run.py --workload fig08_serial --seed 1 --seconds 10 --trace 0

prints every end-to-end metric with its unit (``--trace 1``: every
per-layer metric) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` it runs every workload, ``--repeat`` times with seeds
``seed, seed+1, ...``, and prints a table.  ``--out FILE`` writes the runs,
with the host fingerprint, for ``bench/compare.py``.

Each run happens in a fresh child process (``bench/child.py``) under a
hard timeout; its process group is killed and reaped whatever happens.
Set-up time is the time from spawning a child to its ``READY`` line,
the median of three spawns: one before, one during (the measuring
child) and one after the measurement.  CPU time and peak RSS cover the
child's whole process tree.  Exit status: 0 when every output check
passed, 1 when a check failed (the result is printed), 2 when a run could
not produce a result (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Scratch space for caches, temp files and child logs; removed after
#: each run, and listed in .gitignore.
WORK = ROOT / ".bench_work"

#: The two lines a child prints (see bench/child.py).
READY = "READY"
RESULT = "RESULT "
#: Everything one run does must end within this many seconds.
RUN_BUDGET_S = 170.0
#: Time a measuring child may take beyond --seconds: set-up, the untimed
#: reference round, the round in progress at the deadline, checks.
CHILD_ALLOWANCE_S = 100.0
SETUP_TIMEOUT_S = 45.0


def load_declaration() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@dataclass
class ChildOutcome:
    """What one child process did."""

    pid: int = 0
    ready_s: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    exit_code: Optional[int] = None
    rusage: Optional[object] = None
    error: str = ""


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return members
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it
    has ended (reaping any member that is our own child)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        members = _group_members(pgid)
        if not members:
            return
        for pid in members:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)


def run_child(argv: List[str], timeout_s: float, env: Dict[str, str], log: Path) -> ChildOutcome:
    """Run ``argv`` in a new session under a hard timeout.

    Records when the child printed ``READY`` (seconds since spawn), the
    ``RESULT`` document, its exit code and its resource usage from
    ``wait4`` (which covers the descendants it reaped).
    """
    out = ChildOutcome()
    t0 = time.perf_counter()
    with open(log, "wb") as log_file:
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log_file,
            start_new_session=True,
        )
    out.pid = proc.pid

    def read() -> None:
        for raw in proc.stdout:
            line = raw.decode(errors="replace").rstrip("\n")
            if line == READY and out.ready_s is None:
                out.ready_s = time.perf_counter() - t0
            elif line.startswith(RESULT):
                out.result = json.loads(line[len(RESULT):])

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    deadline = t0 + max(timeout_s, 0.0)
    timed_out = False
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() >= deadline:
            timed_out = True
            _stop_group(proc.pid)
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = out.exit_code = os.waitstatus_to_exitcode(status)
    out.rusage = rusage
    _stop_group(proc.pid)
    reader.join(timeout=10.0)
    proc.stdout.close()
    if timed_out:
        out.error = f"timed out after {timeout_s:.0f} s"
    elif out.exit_code != 0:
        out.error = f"exited with status {out.exit_code}"
    if out.error:
        tail = log.read_text(errors="replace").strip().splitlines()[-15:]
        out.error += "\n" + "\n".join("    " + line for line in tail)
    return out


def child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def assemble(declared: List[Dict[str, object]], values: Dict[str, float]) -> Dict[str, object]:
    """The declared metrics, each with its unit; every one must exist."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_once(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """One run of one workload; a record for the output file."""
    start = time.perf_counter()
    record: Dict[str, object] = {"workload": name, "seed": seed, "trace": int(trace)}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        env = child_env(work)
        argv = [
            sys.executable,
            str(BENCH / "child.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", repr(seconds),
            "--trace", str(int(trace)),
        ]

        def remaining() -> float:
            return RUN_BUDGET_S - (time.perf_counter() - start)

        # Set-up is timed before, during and after the measurement, so
        # that one burst of interference from other tenants of the host
        # cannot cover every sample.
        setups: List[float] = []
        main: Optional[ChildOutcome] = None
        for step in ("measure",) if trace else ("setup", "measure", "setup"):
            if step == "measure":
                out = main = run_child(
                    argv, min(seconds + CHILD_ALLOWANCE_S, remaining()), env, work / "child.log"
                )
            else:
                out = run_child(
                    argv + ["--setup-only"], min(SETUP_TIMEOUT_S, remaining()), env, work / "setup.log"
                )
            if out.error or out.ready_s is None or (out is main and out.result is None):
                record["error"] = f"{step}: " + (out.error or "no result")
                return record
            setups.append(out.ready_s)
        doc = main.result
        values = dict(doc["values"])
        if not trace:
            values["setup_s"] = statistics.median(setups)
            # ru_maxrss is in KiB on Linux.
            values["peak_rss_mb"] = main.rusage.ru_maxrss / 1024.0
        declared = load_declaration()["per_layer" if trace else "end_to_end"]
        record.update(
            correct=doc["failed"] == 0 and not doc["problems"],
            attempted=doc["attempted"],
            failed=doc["failed"],
            metrics=assemble(declared, values),
            digest=doc["digest"],
            rounds=[
                {k: r[k] for k in ("traced", "wall_s", "cpu_s", "attempted", "failed")}
                for r in doc["rounds"]
            ],
            setup_samples=setups if not trace else [],
            problems=doc["problems"],
            values=values,
            ledger=doc.get("ledger"),
            host=doc["host"],
        )
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def describe(record: Dict[str, object]) -> str:
    head = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    if "error" in record:
        return f"{head}: FAILED TO RUN: {record['error']}"
    lines = [
        f"{head}: {len(record['rounds'])} rounds, {record['attempted']} operations, "
        f"{record['failed']} failed, correct={record['correct']}, "
        f"digest={(record['digest'] or '-')[:16]}"
    ]
    lines += [f"  problem: {p}" for p in record["problems"]]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declaration["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (all-workload mode)")
    parser.add_argument("--out", help="write the runs as JSON here")
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.repeat < 1:
        parser.error("--seconds must be >= 0 and --repeat >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    todo = (
        [(args.workload, args.seed)]
        if args.workload
        else [(name, args.seed + r) for r in range(args.repeat) for name in names]
    )
    records = []
    for name, seed in todo:
        record = run_once(name, seed, args.seconds, bool(args.trace))
        records.append(record)
        print(describe(record), file=sys.stderr if "error" in record else sys.stdout, flush=True)

    if args.out:
        host = next((r["host"] for r in records if "host" in r), None)
        with open(args.out, "w") as f:
            json.dump({"host": host, "seconds": args.seconds, "runs": records}, f, indent=1)
            f.write("\n")
    if any("error" in r for r in records):
        return 2
    if args.workload:
        r = records[0]
        summary = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(summary))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
