"""Import budget: what a process loads, pinned with ``sys.modules``.

numpy is the only third-party package needed to import ``repro``.
scipy is imported inside the few functions that call it, so a fleet
client, the reference server, the CLI and a simulated measurement start
without it; ``t.ppf`` and ``norm.sf`` go through their ``scipy.special``
ufuncs, so the inference paths never load ``scipy.stats``.  Every check
runs in a fresh interpreter (the test process has long since imported
everything) and asserts on module names, never on wall time.

The static checks keep the rule from eroding: no module under
``src/repro`` imports scipy at top level, and no non-``__init__``
module carries an unused top-level import.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: Prints the loaded ``scipy*`` modules as one JSON line.
_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] == 'scipy')))\n"
)


def loaded_scipy(code: str):
    """Run ``code`` in a fresh interpreter; return the scipy modules it left
    in ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _REPORT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.sim",
        "repro.live.clientproc",
        "repro.live.refserver",
        "repro.cli",
    ],
)
def test_import_loads_no_scipy(module):
    assert loaded_scipy(f"import {module}\n") == []


def test_sim_measurement_loads_no_scipy():
    assert loaded_scipy(
        """
        from repro.exec.spec import RunSpec
        from repro.measure import measure_spec
        from repro.workloads import MemcachedWorkload

        measure_spec(RunSpec(
            workload=MemcachedWorkload(), target_utilization=0.5,
            num_instances=1, warmup_samples=20,
            measurement_samples_per_instance=50, seed=1,
        ))
        """
    ) == []


def test_library_scenario_run_loads_no_scipy():
    assert loaded_scipy(
        """
        from repro.measure import measure_spec
        from repro.scenarios import (
            compile_scenario, load_scenario, scenario_from_json,
            scenario_to_jsonable,
        )

        doc = scenario_to_jsonable(load_scenario("cross_rack_shift"))
        for fleet in doc["fleets"]:
            fleet["measurement_samples_per_instance"] = 60
            fleet["warmup_samples"] = 20
        for spec in compile_scenario(scenario_from_json(doc)):
            measure_spec(spec)
        """
    ) == []


def test_inference_loads_special_not_stats():
    loaded = loaded_scipy(
        """
        import numpy as np
        from repro.stats.convergence import MeanConvergence
        from repro.stats.inference import ExperimentSample, fit_with_inference

        rng = np.random.default_rng(0)
        exps = [
            ExperimentSample(coded=(a, b), samples=100.0 + 50 * a
                             + rng.exponential(5.0, size=200))
            for a in (0, 1) for b in (0, 1) for _ in range(4)
        ]
        fit, _ = fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=20)
        assert fit.p_values is not None
        rule = MeanConvergence(min_runs=2)
        for v in (10.0, 11.0, 12.5):
            rule.add(v)
        assert 0.0 < rule.half_width() < float("inf")
        """
    )
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.stats")]


def test_live_measurement_imports_nothing_after_the_first():
    """A first import inside the live driver's wall-clock loop would
    stall the open-loop sender.  As in the benchmark's live lane, a small
    warm-up measurement comes first; the measurement after it must find
    every module it needs already loaded."""
    assert loaded_scipy(
        """
        import sys
        from repro.exec.spec import RunSpec
        from repro.live import RefServerConfig, serve_in_thread
        from repro.measure import backend_defaults, measure_spec
        from repro.workloads import MemcachedWorkload

        spec = RunSpec(
            workload=MemcachedWorkload(), backend="live",
            total_rate_rps=2000.0, num_instances=2,
            connections_per_instance=1, warmup_samples=30,
            measurement_samples_per_instance=200, seed=5,
        )
        srv = serve_in_thread(
            RefServerConfig(service={"type": "constant", "value": 300.0})
        )
        try:
            with backend_defaults("live", target=srv.target):
                measure_spec(spec.replace(
                    warmup_samples=20, measurement_samples_per_instance=100
                ))
                before = set(sys.modules)
                measure_spec(spec)
                added = sorted(set(sys.modules) - before)
        finally:
            srv.stop()
        assert added == [], added
        """
    ) == []


def _modules():
    return sorted(PACKAGE.rglob("*.py"))


def _top_level_imports(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name, (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                module = "." * node.level + (node.module or "")
                yield node, module, alias.asname or alias.name


def test_no_top_level_scipy_import():
    offenders = []
    for path in _modules():
        for node, module, _ in _top_level_imports(ast.parse(path.read_text())):
            if module.split(".")[0] == "scipy":
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == [], "import scipy inside the function that calls it"


def test_no_unused_top_level_import():
    """``__init__`` modules re-export, so they are exempt; elsewhere a
    name counts as used if it is read or listed in ``__all__``."""
    unused = []
    for path in _modules():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        for node, _, name in _top_level_imports(tree):
            if name not in used:
                unused.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    assert unused == []
