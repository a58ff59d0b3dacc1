"""Seeded fixtures that make each validity detector fire.

A detector you cannot trigger on demand is a detector you cannot
trust.  Every built-in detector has a fixture here — a small, seeded
spec engineered to violate exactly its pitfall — plus a ``clean``
fixture on which all detectors stay quiet.  The test matrix
(``tests/test_guards.py``) and the CLI self-test (``repro guards
run``) both run this catalogue; CI's guards-smoke lane sweeps it.

Fixtures are ordinary specs wherever the violation is reachable
through the simulator (saturation, warm-up, non-stationarity,
aggregation imbalance).  Coordinated omission and live degradation
cannot happen in the virtual-time simulator *by construction* — which
is the point of the structural pass — so their fixtures run on the
``guardfix`` measurement backend registered below: a thin wrapper
that delegates the actual measurement to the simulator and then
attaches the deterministic evidence annotations a misbehaving live
driver would have produced (``send_lag`` / ``live_health``).  The
wrapper reports ``deterministic=False`` so its synthetic results never
enter the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

__all__ = [
    "GuardFixture",
    "available_fixtures",
    "fixture",
    "build_fixture_spec",
    "run_fixture",
    "GuardFixOptions",
]


@dataclass(frozen=True)
class GuardFixture:
    """One self-test case: a spec builder plus the expected finding."""

    name: str
    #: The detector this fixture is engineered to trip.
    detector: str
    #: Worst status the detector must reach on this fixture
    #: (``"warn"`` accepts fail too; ``"pass"`` is the clean fixture).
    expect_at_least: str
    description: str
    build: Callable[[], object] = field(repr=False, compare=False, default=None)
    #: Non-empty for guardfix-backend fixtures: the GuardFixOptions
    #: mode ``run_fixture`` scopes in while measuring.
    backend_mode: str = ""


_FIXTURES: Dict[str, GuardFixture] = {}


def _register(fx: GuardFixture) -> None:
    _FIXTURES[fx.name] = fx


def available_fixtures() -> List[str]:
    return sorted(_FIXTURES)


def fixture(name: str) -> GuardFixture:
    try:
        return _FIXTURES[name]
    except KeyError:
        raise ValueError(
            f"unknown guard fixture {name!r} (have {sorted(_FIXTURES)})"
        ) from None


def build_fixture_spec(name: str) -> object:
    """The RunSpec for fixture ``name`` (fresh object every call)."""
    return fixture(name).build()


def run_fixture(name: str) -> Tuple[GuardFixture, object]:
    """Measure fixture ``name``; returns ``(fixture, RunResult)``.

    The result carries ``.guards`` like any other measurement — the
    caller asserts (or displays) that ``fixture.detector`` fired.
    """
    from ..measure.api import backend_defaults, measure_spec

    fx = fixture(name)
    spec = fx.build()
    if fx.backend_mode:
        with backend_defaults("guardfix", mode=fx.backend_mode):
            return fx, measure_spec(spec)
    return fx, measure_spec(spec)


# ----------------------------------------------------------------------
# the guardfix backend: sim measurement + synthetic live evidence
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GuardFixOptions:
    """Which misbehavior annotation to attach (``backend_defaults``
    reachable, like every backend option)."""

    #: ``"late_sends"`` attaches a send-lag summary with a late
    #: fraction past the fail threshold; ``"degraded"`` attaches
    #: live-health telemetry of a salvaged run; ``"clean"`` attaches
    #: nothing (the wrapper then behaves like the sim backend minus
    #: determinism).
    mode: str = "clean"

    def __post_init__(self) -> None:
        if self.mode not in ("clean", "late_sends", "degraded"):
            raise ValueError(
                "mode must be 'clean', 'late_sends', or 'degraded'"
            )


class _GuardFixRun:
    def __init__(self, spec, options: GuardFixOptions):
        self.spec = spec
        self.options = options

    def drive(self):
        from ..measure.api import make_measurement_backend

        inner = self.spec.replace(backend="sim")
        result = make_measurement_backend("sim").prepare(inner).drive()
        mode = self.options.mode
        if mode == "late_sends":
            # What a closed-loop (or overwhelmed) client looks like:
            # every slow service period pushed sends behind schedule.
            result.send_lag = {
                r.name: {
                    "n": int(r.requests_sent or r.responses_recorded),
                    "mean_gap_s": 1e-4,
                    "late_fraction": 0.12,
                    "max_lag_gaps": 41.0,
                    "p99_lag_gaps": 22.0,
                    "mean_lag_s": 2.4e-4,
                    "p99_lag_s": 2.2e-3,
                    "max_lag_s": 4.1e-3,
                }
                for r in result.reports
            }
        elif mode == "degraded":
            # What a salvaged live run looks like: drops absorbed by
            # reconnects, one connection permanently written off.
            result.live_health = {
                "connections": 8,
                "dropped_connections": 3,
                "reconnects": 2,
                "lost_connections": 1,
                "lost_sends": 4,
                "lost_pending": 6,
                "stall_warnings": 1,
                "mid_run_probes": 1,
                "degraded": True,
                "events": (
                    "connection-drop: client0/conn1",
                    "reconnect: client0/conn1",
                    "stall-warn: idle 1.02s",
                    "connection-lost: client1/conn0",
                ),
            }
        return result


class _GuardFixBackend:
    def __init__(self, options: GuardFixOptions):
        self.options = options

    def prepare(self, spec) -> _GuardFixRun:
        if getattr(spec, "scenario", None) is not None:
            raise ValueError("the guardfix backend runs plain RunSpecs only")
        return _GuardFixRun(spec, self.options)

    def capabilities(self):
        from ..measure.api import BenchCapabilities

        return BenchCapabilities(
            backend="guardfix",
            # The measurement itself is seeded sim, but the synthetic
            # annotation depends on backend *options* which are not in
            # the spec digest — so the cache must never store these.
            deterministic=False,
            wall_clock=True,
            fault_hookable=False,
            scenarios=False,
            utilization_targeting=True,
            guard_evidence=True,
        )

    def close(self) -> None:
        return None


def _register_guardfix() -> None:
    from ..measure.api import register_measurement_backend

    register_measurement_backend(
        "guardfix",
        lambda options: _GuardFixBackend(options),
        GuardFixOptions,
        summary="sim measurement plus synthetic live-misbehavior evidence "
        "(guard self-tests only; never cached)",
    )


_register_guardfix()


# ----------------------------------------------------------------------
# fixture specs
# ----------------------------------------------------------------------
def _clean_spec():
    from ..exec.spec import RunSpec
    from ..workloads import MemcachedWorkload

    return RunSpec(
        workload=MemcachedWorkload(),
        total_rate_rps=20_000,
        num_instances=4,
        warmup_samples=300,
        measurement_samples_per_instance=3_000,
        seed=11,
        tag="guardfix:clean",
    )


def _saturation_spec():
    from ..exec.spec import RunSpec
    from ..workloads import MemcachedWorkload

    # One client instance asked to source the whole offered load: its
    # tx/rx CPU cost puts it well past the 50% utilization fail line
    # while the 8-core server stays comfortable (~45%).
    return RunSpec(
        workload=MemcachedWorkload(),
        total_rate_rps=450_000,
        num_instances=1,
        warmup_samples=200,
        measurement_samples_per_instance=3_000,
        seed=11,
        tag="guardfix:client_saturation",
    )


def _warmup_spec():
    from ..exec.spec import RunSpec
    from ..workloads import MemcachedWorkload

    # No warm-up at high load: the first measurement window sees the
    # cold server (idle-state frequency, empty pipeline) settle.
    return RunSpec(
        workload=MemcachedWorkload(),
        target_utilization=0.85,
        num_instances=2,
        warmup_samples=0,
        measurement_samples_per_instance=4_000,
        seed=11,
        tag="guardfix:warmup",
    )


def _nonstationary_spec():
    from ..scenarios.compiler import compile_scenario
    from ..scenarios.schema import ClientFleetSpec, ScenarioSpec, ServerPoolSpec

    # A diurnal ramp phase-aligned to start at the trough: the offered
    # load (and with it the latency distribution) climbs monotonically
    # through the measurement window.
    scn = ScenarioSpec(
        name="guardfix-nonstationary",
        pools=(ServerPoolSpec(name="pool", workload={"workload": "memcached"}),),
        fleets=(
            ClientFleetSpec(
                name="ramp",
                target="pool",
                instances=8,
                rate_rps=520_000,
                arrival={
                    "type": "diurnal",
                    "amplitude": 0.8,
                    "period_us": 200_000.0,
                    "phase": -1.5707963,
                },
                warmup_samples=200,
                measurement_samples_per_instance=3_000,
            ),
        ),
        seed=11,
        description="guard fixture: load ramp during measurement",
    )
    return compile_scenario(scn)[0]


def _aggregation_spec():
    from ..scenarios.compiler import compile_scenario
    from ..scenarios.schema import ClientFleetSpec, ScenarioSpec, ServerPoolSpec

    # Two fleets on one pool offering a 9:1 rate split: every client
    # records until the whole bench finishes, so sample counts land
    # proportional to rates — the fast client contributes 90% of a
    # pooled distribution while the combiner weights both equally
    # (TV distance 0.4 > the 0.35 fail line).  Budgets are matched to
    # the rates so both fleets finish around the same virtual time.
    scn = ScenarioSpec(
        name="guardfix-aggregation",
        pools=(ServerPoolSpec(name="pool", workload={"workload": "memcached"}),),
        fleets=(
            ClientFleetSpec(
                name="whale",
                target="pool",
                instances=1,
                rate_rps=90_000,
                measurement_samples_per_instance=9_000,
                warmup_samples=200,
            ),
            ClientFleetSpec(
                name="minnow",
                target="pool",
                instances=1,
                rate_rps=10_000,
                measurement_samples_per_instance=1_000,
                warmup_samples=200,
            ),
        ),
        seed=11,
        description="guard fixture: 9:1 per-client sample-share imbalance",
    )
    return compile_scenario(scn)[0]


def _late_sends_spec():
    spec = _clean_spec()
    return spec.replace(backend="guardfix", tag="guardfix:coordinated_omission")


def _degraded_spec():
    spec = _clean_spec()
    return spec.replace(backend="guardfix", tag="guardfix:degradation")


_register(
    GuardFixture(
        name="clean",
        detector="",
        expect_at_least="pass",
        description="well-configured 4-instance run; every detector quiet",
        build=_clean_spec,
    )
)
_register(
    GuardFixture(
        name="client_saturation",
        detector="client_saturation",
        expect_at_least="fail",
        description="one client instance sourcing 450 krps (util > 50%)",
        build=_saturation_spec,
    )
)
_register(
    GuardFixture(
        name="coordinated_omission",
        detector="coordinated_omission",
        expect_at_least="fail",
        description="synthetic send log with 12% of sends > 4 gaps late",
        build=_late_sends_spec,
        backend_mode="late_sends",
    )
)
_register(
    GuardFixture(
        name="warmup_insufficiency",
        detector="warmup_insufficiency",
        expect_at_least="warn",
        description="zero warm-up at 85% utilization (cold-start drift)",
        build=_warmup_spec,
    )
)
_register(
    GuardFixture(
        name="non_stationarity",
        detector="non_stationarity",
        expect_at_least="warn",
        description="diurnal load ramp through the measurement window",
        build=_nonstationary_spec,
    )
)
_register(
    GuardFixture(
        name="aggregation_imbalance",
        detector="aggregation_imbalance",
        expect_at_least="fail",
        description="two fleets with a 9:1 sample-count imbalance",
        build=_aggregation_spec,
    )
)
_register(
    GuardFixture(
        name="degradation",
        detector="degradation",
        expect_at_least="warn",
        description="synthetic live-health telemetry of a salvaged run",
        build=_degraded_spec,
        backend_mode="degraded",
    )
)
