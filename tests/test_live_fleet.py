"""Tests for the supervised multi-process live fleet (repro.live.fleet).

The headline invariant, pinned end to end: killing up to
``max_lost_client_fraction`` of the client processes mid-run yields a
*converged, degraded* result whose merge goes through the exact same
aggregation path a single-process run uses — and killing more yields a
clean :class:`LiveMeasurementError`, never a hang.

Also covered here: the seeded decorrelated-jitter backoff shared by the
reconnect and respawn paths, the respawn budget's respawn-vs-lost
sequence, the assignment partitioning that makes the
fleet's offered load compose exactly (per-instance RNG streams keyed by
name, not by process), live scenario routing with per-(fleet, pool)
group metrics, and the live chaos harness.
"""

import threading
import time

import numpy as np
import pytest

from repro.exec.spec import RunSpec
from repro.live import (
    LiveMeasurementError,
    LiveOptions,
    RefServerConfig,
    parse_target,
    serve_in_thread,
)
from repro.exec.backoff import (
    RESPAWN_CHANNEL,
    backoff_schedule,
    jitter_rng,
    next_delay,
)
from repro.live import FleetRun
from repro.live.driver import (
    LiveBackend,
    assignments_for_spec,
    build_live_result,
    registry_for_spec,
)
from repro.workloads import MemcachedWorkload


def fleet_spec(**overrides):
    kwargs = dict(
        workload=MemcachedWorkload(),
        total_rate_rps=900.0,
        num_instances=3,
        connections_per_instance=2,
        warmup_samples=20,
        measurement_samples_per_instance=300,
        seed=5,
        backend="live",
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


def fleet_options(target, **overrides):
    kwargs = dict(
        target=target,
        processes=3,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.0,
        respawn_attempts=0,
        max_lost_client_fraction=0.34,
    )
    kwargs.update(overrides)
    return LiveOptions(**kwargs)


# ----------------------------------------------------------------------
# seeded backoff (shared by reconnects and respawns)
# ----------------------------------------------------------------------
class TestBackoff:
    def test_jitter_rng_is_deterministic_per_slot(self):
        a = jitter_rng(5, 0, 1, 2).uniform(size=4)
        b = jitter_rng(5, 0, 1, 2).uniform(size=4)
        assert a.tolist() == b.tolist()
        # Any coordinate change decorrelates the stream.
        for other in ((6, 0, 1, 2), (5, 1, 1, 2), (5, 0, 2, 2), (5, 0, 1, 3)):
            assert jitter_rng(*other).uniform(size=4).tolist() != a.tolist()

    def test_next_delay_bounds(self):
        rng = jitter_rng(0, 0, 0, 0)
        prev = 0.05
        for _ in range(50):
            prev = next_delay(rng, 0.05, 1.0, prev)
            assert 0.05 <= prev <= 1.0

    def test_schedule_matches_manual_draws(self):
        """backoff_schedule replays the driver's loop variate-for-variate:
        first attempt immediate (no delay recorded), then base, then
        decorrelated-jitter draws."""
        sched = backoff_schedule(
            jitter_rng(5, 0, 2, RESPAWN_CHANNEL), 0.1, 2.0, attempts=4
        )
        assert len(sched) == 3  # attempts - 1 delays
        rng = jitter_rng(5, 0, 2, RESPAWN_CHANNEL)
        prev = 0.1
        expect = [0.1]
        for _ in range(2):
            prev = next_delay(rng, 0.1, 2.0, prev)
            expect.append(prev)
        assert sched == pytest.approx(expect)
        # And the whole schedule replays bit-identically from the seed.
        again = backoff_schedule(
            jitter_rng(5, 0, 2, RESPAWN_CHANNEL), 0.1, 2.0, attempts=4
        )
        assert sched == again

    def test_respawn_channel_disjoint_from_connection_slots(self):
        # Connection slots are small non-negative ints; the respawn
        # channel must never collide with one.
        assert RESPAWN_CHANNEL > 10_000


# ----------------------------------------------------------------------
# respawn budget (the supervisor's failure state machine, no processes)
# ----------------------------------------------------------------------
#: Slot state after each consecutive failure (up to four, until the
#: slot is lost), per respawn budget: the budget alone decides
#: respawn vs lost.
RESPAWN_TABLE = {
    0: ("lost",),
    1: ("respawning", "lost"),
    2: ("respawning", "respawning", "lost"),
    3: ("respawning", "respawning", "respawning", "lost"),
}


class TestRespawnBudget:
    @pytest.mark.parametrize("attempts", sorted(RESPAWN_TABLE))
    def test_failure_sequence(self, attempts):
        spec = fleet_spec(num_instances=1)
        options = fleet_options(
            "tcp://127.0.0.1:1",
            processes=1,
            respawn_attempts=attempts,
            respawn_backoff_base_s=0.1,
            respawn_backoff_cap_s=2.0,
            max_lost_client_fraction=1.0,
        )
        run = FleetRun(spec, options, assignments_for_spec(spec, options))
        (slot,) = run.slots
        states, delays = [], []
        for failure in range(4):
            run._handle_failure(slot, f"failure {failure}", now=float(failure))
            states.append(slot.state)
            if slot.state == "lost":
                break
            delays.append(slot.respawn_at - failure)
        assert tuple(states) == RESPAWN_TABLE[attempts]
        assert slot.respawns_used == attempts
        assert run.lost_clients == 1
        # Respawn delays follow the seeded schedule on the respawn channel.
        expect = backoff_schedule(
            jitter_rng(spec.seed, spec.run_index, 0, RESPAWN_CHANNEL),
            0.1,
            2.0,
            attempts=attempts + 1,
        )
        assert delays == pytest.approx(expect)


# ----------------------------------------------------------------------
# assignment partitioning and RNG layout
# ----------------------------------------------------------------------
class TestAssignments:
    def test_plain_spec_assignments(self):
        spec = fleet_spec()
        asg = assignments_for_spec(spec, LiveOptions())
        assert [a.name for a in asg] == ["client0", "client1", "client2"]
        assert sum(a.rate_rps for a in asg) == pytest.approx(900.0)
        assert all(a.target == LiveOptions().target for a in asg)

    def test_fleet_slices_partition_the_assignment_set(self):
        """The union of the per-process slices is exactly the single
        process assignment list — same names, same rates, no overlap —
        so the composed offered load is identical."""
        from repro.live.fleet import FleetRun

        spec = fleet_spec(num_instances=5)
        opts = fleet_options("tcp://127.0.0.1:1", processes=3)
        asg = assignments_for_spec(spec, opts)
        run = FleetRun(spec, opts, asg)
        sliced = [a for s in run.slots for a in s.assignments]
        assert sorted(a.name for a in sliced) == [a.name for a in asg]
        assert len({a.name for a in sliced}) == len(asg)

    def test_gap_streams_keyed_by_instance_name(self):
        """Two registries over the same spec give identical per-name gap
        streams — which is what lets a fleet slice draw exactly the
        variates the single-process driver would have drawn."""
        spec = fleet_spec()
        a = registry_for_spec(spec).stream("client1/gaps").uniform(size=8)
        b = registry_for_spec(spec).stream("client1/gaps").uniform(size=8)
        assert a.tolist() == b.tolist()
        c = registry_for_spec(spec.replace(run_index=1))
        assert c.stream("client1/gaps").uniform(size=8).tolist() != a.tolist()


# ----------------------------------------------------------------------
# fleet end to end
# ----------------------------------------------------------------------
class TestFleetEndToEnd:
    def test_three_process_fleet_converges(self):
        srv = serve_in_thread(
            RefServerConfig(service={"type": "constant", "value": 200.0})
        )
        try:
            spec = fleet_spec()
            opts = fleet_options(srv.target)
            result = LiveBackend(opts).prepare(spec).drive()
        finally:
            srv.stop()
        health = result.live_health
        assert health["processes"] == 3
        assert health["spawned"] == 3
        assert health["lost_clients"] == 0
        assert not health["degraded"]
        assert [r.name for r in result.reports] == [
            "client0", "client1", "client2",
        ]
        assert sum(r.responses_recorded for r in result.reports) == 900
        assert result.metrics[0.5] >= 200.0

    def test_merge_is_single_process_aggregation(self):
        """The fleet merge must be byte-identical to handing the same
        per-instance reports to the single-process aggregation path."""
        srv = serve_in_thread(
            RefServerConfig(service={"type": "constant", "value": 200.0})
        )
        try:
            spec = fleet_spec(measurement_samples_per_instance=200)
            result = LiveBackend(fleet_options(srv.target)).prepare(spec).drive()
        finally:
            srv.stop()
        again = build_live_result(
            spec,
            list(result.reports),
            health_summary=dict(result.live_health),
            send_lag=dict(result.send_lag),
            client_probe=dict(result.client_probe),
            wall_s=1.0,
        )
        assert again.metrics == result.metrics

    def test_kill_within_bound_degrades_and_converges(self):
        srv = serve_in_thread(
            RefServerConfig(service={"type": "constant", "value": 200.0})
        )
        try:
            spec = fleet_spec(measurement_samples_per_instance=900)
            run = LiveBackend(fleet_options(srv.target)).prepare(spec)

            def killer():
                time.sleep(1.2)
                run.slots[1].proc.kill()

            t = threading.Thread(target=killer)
            t.start()
            result = run.drive()
            t.join()
        finally:
            srv.stop()
        health = result.live_health
        assert health["lost_clients"] == 1
        assert health["degraded"]
        assert health["lost_client_fraction"] == pytest.approx(1 / 3)
        # The lost slot's slice is absent; the survivors merged cleanly.
        assert [r.name for r in result.reports] == ["client0", "client2"]
        assert np.isfinite(result.metrics[0.99])
        # ... and the degradation guard surfaces it as a warning.
        from repro.guards.api import evaluate_run

        verdict = evaluate_run(spec, result).verdict("degradation")
        assert verdict is not None and verdict.status == "warn"
        assert "lost_clients" in dict(verdict.evidence)

    def test_kill_beyond_bound_is_a_clean_error(self):
        srv = serve_in_thread(
            RefServerConfig(service={"type": "constant", "value": 200.0})
        )
        try:
            spec = fleet_spec(measurement_samples_per_instance=900)
            run = LiveBackend(fleet_options(srv.target)).prepare(spec)

            def killer():
                time.sleep(1.2)
                for slot in (0, 2):
                    run.slots[slot].proc.kill()

            t = threading.Thread(target=killer)
            t.start()
            with pytest.raises(LiveMeasurementError, match="salvage bound"):
                run.drive()
            t.join()
        finally:
            srv.stop()

    def test_respawn_recovers_a_killed_slot(self):
        srv = serve_in_thread(
            RefServerConfig(service={"type": "constant", "value": 200.0})
        )
        try:
            spec = fleet_spec(measurement_samples_per_instance=900, seed=11)
            run = LiveBackend(
                fleet_options(
                    srv.target,
                    respawn_attempts=2,
                    respawn_backoff_base_s=0.05,
                    respawn_backoff_cap_s=0.5,
                )
            ).prepare(spec)

            def killer():
                time.sleep(1.0)
                run.slots[2].proc.kill()

            t = threading.Thread(target=killer)
            t.start()
            result = run.drive()
            t.join()
        finally:
            srv.stop()
        health = result.live_health
        assert health["respawns"] == 1
        assert health["spawned"] == 4
        assert health["lost_clients"] == 0
        assert health["degraded"]  # a respawn is evidence, not silence
        assert [r.name for r in result.reports] == [
            "client0", "client1", "client2",
        ]


# ----------------------------------------------------------------------
# live scenario routing
# ----------------------------------------------------------------------
class TestLiveScenario:
    def test_two_pool_scenario_with_group_metrics(self):
        from repro.measure import backend_defaults, measure_spec
        from repro.scenarios import compile_scenario, scenario_from_json

        scenario = scenario_from_json(
            {
                "name": "two_pools_live",
                "seed": 9,
                "pools": [
                    {"name": "fast", "workload": {"workload": "memcached"}, "count": 1},
                    {"name": "slow", "workload": {"workload": "memcached"}, "count": 1},
                ],
                "fleets": [
                    {
                        "name": "front",
                        "target": "fast",
                        "rate_rps": 600.0,
                        "instances": 2,
                        "connections_per_instance": 2,
                        "warmup_samples": 20,
                        "measurement_samples_per_instance": 150,
                    },
                    {
                        "name": "batch",
                        "target": "slow",
                        "rate_rps": 400.0,
                        "instances": 1,
                        "connections_per_instance": 2,
                        "warmup_samples": 20,
                        "measurement_samples_per_instance": 150,
                    },
                ],
            }
        )
        (spec,) = compile_scenario(scenario)
        assert spec.scenario is not None  # non-degenerate
        fast = serve_in_thread(
            RefServerConfig(service={"type": "constant", "value": 150.0})
        )
        slow = serve_in_thread(
            RefServerConfig(service={"type": "constant", "value": 900.0})
        )
        try:
            with backend_defaults(
                "live",
                pool_targets={"fast": fast.target, "slow": slow.target},
                processes=2,
            ):
                result = measure_spec(spec.replace(backend="live"))
        finally:
            fast.stop()
            slow.stop()
        assert [r.name for r in result.reports] == [
            "front0", "front1", "batch0",
        ]
        groups = result.group_metrics
        assert set(groups) == {("front", "fast"), ("batch", "slow")}
        # The slow pool really is slower, end to end.
        assert groups[("batch", "slow")][0.5] > groups[("front", "fast")][0.5]
        assert not result.live_health["degraded"]


# ----------------------------------------------------------------------
# live chaos: converged (possibly degraded) or clean error — never a hang
# ----------------------------------------------------------------------
class TestLiveChaos:
    def test_seeded_plan_holds_the_invariant(self):
        from repro.faults.harness import run_live_chaos

        report = run_live_chaos(1, deadline_s=60.0)
        assert report.invariant_holds
        assert not report.hang
        assert report.plan_digest  # reproducible provenance

    def test_endpoint_reset_mid_run(self):
        from repro.faults.harness import run_live_chaos
        from repro.faults.plan import FaultAction, FaultPlan

        plan = FaultPlan(
            seed=0,
            actions=(
                FaultAction(
                    kind="endpoint_reset", site="server.connection", nth=5
                ),
            ),
        )
        report = run_live_chaos(0, plan=plan, deadline_s=60.0)
        assert report.invariant_holds
        assert ("server.connection", 5, "endpoint_reset") in report.fired


# ----------------------------------------------------------------------
# target parsing (satellite: tighter errors, IPv6, nearest-form hints)
# ----------------------------------------------------------------------
class TestParseTarget:
    def test_bracketed_ipv6(self):
        assert parse_target("tcp://[::1]:7799") == ("echo", "::1", 7799)
        assert parse_target("[fe80::2]:80") == ("echo", "fe80::2", 80)

    def test_unbracketed_ipv6_gets_a_hint(self):
        with pytest.raises(ValueError, match=r"\[::1\]:7799"):
            parse_target("tcp://::1:7799")

    def test_scheme_typo_gets_nearest_form_hint(self):
        with pytest.raises(ValueError, match="did you mean 'tcp://h:1'"):
            parse_target("tpc://h:1")

    def test_port_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_target("tcp://h:70000")

    def test_unclosed_bracket(self):
        with pytest.raises(ValueError, match="unclosed"):
            parse_target("tcp://[::1:7799")


# ----------------------------------------------------------------------
# options validation and normalization
# ----------------------------------------------------------------------
class TestFleetOptions:
    def test_heartbeat_timeout_must_exceed_interval(self):
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            LiveOptions(heartbeat_interval_s=1.0, heartbeat_timeout_s=0.5)

    def test_processes_must_be_positive(self):
        with pytest.raises(ValueError, match="processes"):
            LiveOptions(processes=0)

    def test_loss_bound_range(self):
        with pytest.raises(ValueError, match="max_lost_client_fraction"):
            LiveOptions(max_lost_client_fraction=1.5)

    def test_pool_targets_accepts_strings_and_mappings(self):
        from_str = LiveOptions(pool_targets=("a=tcp://h:1", "b=tcp://h:2"))
        from_map = LiveOptions(
            pool_targets={"a": "tcp://h:1", "b": "tcp://h:2"}
        )
        assert from_str.pool_targets == from_map.pool_targets
        assert from_str.pool_target_map() == {
            "a": "tcp://h:1", "b": "tcp://h:2",
        }

    def test_pool_targets_rejects_malformed(self):
        with pytest.raises(ValueError, match="POOL=tcp"):
            LiveOptions(pool_targets=("just-a-url",))
