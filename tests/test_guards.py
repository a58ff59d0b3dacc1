"""Tests for the measurement-validity guard layer (repro.guards) and
the self-healing live driver it audits.

The contract under test, in the order the ISSUE states it:

* every detector **fires on its fixture** and **stays quiet on the
  clean fixture** — a detector you cannot trigger on demand is a
  detector you cannot trust;
* verdicts are **bit-identical across executor backends** (serial /
  process) because they are computed inside the measurement and
  travel with the pickled result;
* **schema-3 cache entries stay readable**: results written before the
  guard layer come back with ``guards=None`` (un-audited), never an
  AttributeError;
* the **live driver self-heals**: dropped connections reconnect with
  seeded backoff, a stalled-then-recovered endpoint completes as a
  *degraded* run (guard warning) instead of raising, losing too many
  connections raises cleanly, and a wedged endpoint still trips the
  stall-ladder abort;
* **strict enforcement** (``repro.run(spec, strict_guards=True)``, CLI
  ``--strict-guards``) escalates a failed audit to
  ``GuardFailureError`` / exit code 4.
"""

import json
import pickle
import threading

import numpy as np
import pytest

import repro
from repro.exec.cache import ResultCache, cache_version
from repro.exec.executors import execute_specs
from repro.exec.spec import RunSpec
from repro.guards import (
    FAIL,
    PASS,
    SKIP,
    WARN,
    GuardFailureError,
    GuardReport,
    GuardThresholds,
    GuardVerdict,
    available_detectors,
    evaluate_run,
    guard_enforcement,
    guard_thresholds,
)
from repro.guards.fixtures import available_fixtures, fixture, run_fixture
from repro.live import LiveMeasurementError, RefServerConfig, serve_in_thread
from repro.measure import backend_defaults, measure_spec
from repro.workloads import MemcachedWorkload

_SEVERITY = {PASS: 0, SKIP: 0, WARN: 1, FAIL: 2}

#: One measurement per fixture for the whole module — the matrix asserts
#: several properties of the same deterministic result.
_FIXTURE_RESULTS = {}


def fixture_result(name):
    if name not in _FIXTURE_RESULTS:
        _FIXTURE_RESULTS[name] = run_fixture(name)
    return _FIXTURE_RESULTS[name]


def small_spec(**overrides):
    kwargs = dict(
        workload=MemcachedWorkload(),
        total_rate_rps=20_000,
        num_instances=2,
        warmup_samples=100,
        measurement_samples_per_instance=800,
        seed=7,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


def live_spec(**overrides):
    kwargs = dict(
        workload=MemcachedWorkload(),
        total_rate_rps=2_000.0,
        num_instances=1,
        connections_per_instance=4,
        warmup_samples=30,
        measurement_samples_per_instance=150,
        seed=5,
        backend="live",
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


# ----------------------------------------------------------------------
# verdict / report / threshold units
# ----------------------------------------------------------------------
class TestVerdictApi:
    def test_verdict_validates_status(self):
        with pytest.raises(ValueError, match="status"):
            GuardVerdict(detector="d", status="meh", summary="")

    def test_evidence_is_frozen_and_sorted(self):
        v = GuardVerdict(
            detector="d", status=PASS, summary="", evidence={"b": 2, "a": 1}
        )
        assert v.evidence == (("a", 1), ("b", 2))
        assert v.evidence_dict() == {"a": 1, "b": 2}
        assert hash(v)  # hashable -> safely comparable across pickles

    def test_report_worst_status_wins(self):
        mk = lambda s: GuardVerdict(detector=s, status=s, summary="")
        assert GuardReport(verdicts=(mk(PASS), mk(SKIP))).status == PASS
        assert GuardReport(verdicts=(mk(PASS), mk(WARN))).status == WARN
        assert GuardReport(verdicts=(mk(WARN), mk(FAIL))).status == FAIL
        assert GuardReport(verdicts=(mk(WARN), mk(FAIL))).ok is False
        assert GuardReport(verdicts=(mk(WARN),)).ok is True  # warn passes

    def test_report_format_and_jsonable(self):
        report = GuardReport(
            verdicts=(
                GuardVerdict(
                    detector="thing",
                    status=WARN,
                    summary="drifted",
                    evidence={"z": 1.5},
                ),
            )
        )
        text = report.format(verbose=True)
        assert "guards: warn" in text and "drifted" in text and "z=1.5" in text
        blob = json.dumps(report.to_jsonable())
        assert json.loads(blob)["status"] == "warn"

    def test_thresholds_scope(self):
        from repro.guards import current_thresholds

        base = current_thresholds()
        with guard_thresholds(late_fraction_fail=0.5) as t:
            assert t.late_fraction_fail == 0.5
            assert current_thresholds() is t
        assert current_thresholds() is base

    def test_thresholds_validate(self):
        with pytest.raises(ValueError):
            GuardThresholds(late_fraction_warn=-0.1)
        with pytest.raises(ValueError, match="min_windows"):
            GuardThresholds(min_windows=1)

    def test_enforcement_mode_validates(self):
        from repro.guards import set_guard_enforcement

        with pytest.raises(ValueError, match="mode"):
            set_guard_enforcement("loose")

    def test_detector_errors_become_skip(self):
        # Guards never take down the measurement they audit: a result
        # with a hostile shape yields skip verdicts, not an exception.
        report = evaluate_run(spec=None, result=object())
        assert set(v.detector for v in report.verdicts) == set(
            available_detectors()
        )
        assert report.status in (PASS, SKIP, "pass")


# ----------------------------------------------------------------------
# the detector matrix: every fixture fires, the clean one stays quiet
# ----------------------------------------------------------------------
class TestDetectorMatrix:
    def test_every_detector_has_a_fixture(self):
        covered = {fixture(n).detector for n in available_fixtures()}
        assert set(available_detectors()) <= covered | {""}

    @pytest.mark.parametrize(
        "name", [n for n in available_fixtures() if fixture(n).detector]
    )
    def test_fixture_fires_its_detector(self, name):
        fx, result = fixture_result(name)
        verdict = result.guards.verdict(fx.detector)
        assert verdict is not None, f"{fx.detector} missing from report"
        assert _SEVERITY[verdict.status] >= _SEVERITY[fx.expect_at_least], (
            f"{name}: expected >= {fx.expect_at_least}, got "
            f"{verdict.status} ({verdict.summary})"
        )
        assert verdict.evidence, "a finding must carry evidence"
        assert verdict.pitfall, "a finding must name its pitfall"

    def test_clean_fixture_is_all_quiet(self):
        _, result = fixture_result("clean")
        report = result.guards
        assert report.status == PASS, report.format(verbose=True)
        assert report.failures() == () and report.warnings() == ()

    def test_verdicts_are_deterministic(self):
        # Same fixture twice -> bit-identical GuardReport objects.
        _, a = run_fixture("client_saturation")
        _, b = run_fixture("client_saturation")
        assert a.guards == b.guards
        assert pickle.dumps(a.guards) == pickle.dumps(b.guards)

    def test_coordinated_omission_structural_pass_on_sim(self):
        # The virtual-time simulator cannot coordinate-omit by
        # construction; the detector says so rather than skipping.
        _, result = fixture_result("clean")
        verdict = result.guards.verdict("coordinated_omission")
        assert verdict.status == PASS
        assert "structurally open-loop" in verdict.summary


# ----------------------------------------------------------------------
# executor identity: verdicts ride the pickles
# ----------------------------------------------------------------------
class TestExecutorIdentity:
    def test_guards_identical_across_backends(self):
        from repro.exec import make_executor

        spec = small_spec()
        reports = {}
        for backend in ("serial", "process"):
            (result,) = execute_specs([spec], make_executor(backend))
            assert result.guards is not None
            reports[backend] = result.guards
        assert reports["serial"] == reports["process"]
        assert pickle.dumps(reports["serial"]) == pickle.dumps(reports["process"])


# ----------------------------------------------------------------------
# cache compatibility: pre-guard entries stay readable, un-audited
# ----------------------------------------------------------------------
class TestCacheCompat:
    def test_schema3_entry_backfills_guards(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        result = measure_spec(spec)
        assert result.guards is not None
        entry = cache.put(spec, result)

        # Rewrite the entry as a schema-3 producer would have written
        # it: no guards attribute, no guard tape, version ...:3:...
        old = measure_spec(spec)
        del old.__dict__["guards"]
        for report in old.reports:
            del report.__dict__["phase_windows"]
            del report.__dict__["warmup_tail"]
        payload = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
        (entry / "outcome.pkl").write_bytes(payload)
        meta = json.loads((entry / "meta.json").read_text())
        lib, _, spec_schema = cache_version().rsplit(":", 2)
        meta["version"] = f"{lib}:3:{spec_schema}"
        import hashlib

        meta["checksum"] = hashlib.sha256(payload).hexdigest()
        (entry / "meta.json").write_text(json.dumps(meta))

        loaded = cache.get(spec)
        assert loaded is not None, "schema-3 entry must stay readable"
        assert loaded.guards is None  # un-audited, not invented
        for report in loaded.reports:
            assert report.phase_windows.shape == (0, 4)
            assert report.warmup_tail.size == 0
        # Un-audited cached results flow through procedure aggregation.
        assert loaded.metrics == result.metrics

    def test_schema2_entry_is_invalidated(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        entry = cache.put(spec, measure_spec(spec))
        meta = json.loads((entry / "meta.json").read_text())
        lib, _, spec_schema = cache_version().rsplit(":", 2)
        meta["version"] = f"{lib}:2:{spec_schema}"
        (entry / "meta.json").write_text(json.dumps(meta))
        assert cache.get(spec) is None  # deleted, not trusted


# ----------------------------------------------------------------------
# the self-healing live driver
# ----------------------------------------------------------------------
class _FiniteEchoServer:
    """A threaded echo server with a fixed budget: accepts at most
    ``max_accepts`` connections, serves ``serve_per_conn`` responses on
    each, then closes them — after which the endpoint is gone for good.
    """

    def __init__(self, max_accepts: int, serve_per_conn: int):
        import socket

        self.serve_per_conn = serve_per_conn
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._remaining = max_accepts
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self):
        while self._remaining > 0:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self._remaining -= 1
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()
        self._sock.close()

    def _serve(self, conn):
        from repro.live.protocol import decode_request, encode_response

        served = 0
        buf = b""
        try:
            while served < self.serve_per_conn:
                data = conn.recv(4096)
                if not data:
                    return
                buf += data
                while b"\n" in buf and served < self.serve_per_conn:
                    line, buf = buf.split(b"\n", 1)
                    seq = decode_request(line + b"\n")
                    if seq is not None:
                        conn.sendall(encode_response(seq))
                        served += 1
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self._remaining = 0
        try:
            self._sock.close()
        except OSError:
            pass


class TestLiveSelfHealing:
    def run_live(self, target, spec, **options):
        with backend_defaults("live", target=target, **options):
            return measure_spec(spec)

    def test_dropped_connections_reconnect_and_degrade(self):
        # 180 requests over 4 connections is ~45 per connection; a
        # drop_after of 25 guarantees every connection dies (and heals)
        # at least once.
        srv = serve_in_thread(
            RefServerConfig(
                service={"type": "constant", "value": 500.0}, drop_after=25
            )
        )
        try:
            result = self.run_live(srv.target, live_spec())
        finally:
            srv.stop()
        health = result.live_health
        assert health["dropped_connections"] >= 1
        assert health["reconnects"] >= 1
        assert health["lost_connections"] == 0  # healed, not lost
        assert health["degraded"] is True
        verdict = result.guards.verdict("degradation")
        assert verdict.status == WARN
        assert "salvaged" in verdict.summary
        # The measurement itself still completed in full.
        assert sum(r.responses_recorded for r in result.reports) == 150

    def test_stall_plus_dropped_connection_completes_degraded(self):
        # The ISSUE's acceptance scenario: a 250 ms server stall plus a
        # dropped connection mid-run completes as a degraded result
        # (guard warning) instead of raising.
        stall_s = 0.25
        srv = serve_in_thread(
            RefServerConfig(
                service={"type": "constant", "value": 500.0}, drop_after=100
            )
        )
        spec = live_spec(
            total_rate_rps=1_000.0,
            warmup_samples=50,
            measurement_samples_per_instance=500,
        )
        timer = threading.Timer(0.2, srv.stall, args=(stall_s,))
        try:
            timer.start()
            result = self.run_live(srv.target, spec, stall_warn_s=0.1)
        finally:
            timer.cancel()
            srv.stop()
        assert sum(r.responses_recorded for r in result.reports) == 500
        health = result.live_health
        assert health["degraded"] is True
        assert health["dropped_connections"] >= 1
        # Degradation is a warning, never a fail: salvage keeps the
        # result, the audit keeps the evidence.  (Other detectors may
        # independently flag the stall — that is their job.)
        assert result.guards.verdict("degradation").status == WARN

    def test_losing_too_many_connections_raises_cleanly(self):
        # A listener that accepts exactly the initial 4 connections and
        # serves 20 responses on each before closing: every reconnect
        # is refused, losses cross the 25% salvage bound, and the
        # driver must raise rather than keep measuring a shadow of the
        # offered load.  Fully deterministic — no timers.
        srv = _FiniteEchoServer(max_accepts=4, serve_per_conn=20)
        spec = live_spec(measurement_samples_per_instance=3_000)
        try:
            with pytest.raises(LiveMeasurementError, match="lost"):
                with backend_defaults(
                    "live",
                    target=f"tcp://127.0.0.1:{srv.port}",
                    health_probe=False,  # probes would consume accepts
                    reconnect_attempts=2,
                    reconnect_backoff_base_s=0.01,
                    reconnect_backoff_cap_s=0.05,
                    max_lost_connection_fraction=0.25,
                    progress_timeout_s=5.0,
                ):
                    measure_spec(spec)
        finally:
            srv.close()

    def test_health_probe_fails_fast_on_dead_endpoint(self):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        with backend_defaults(
            "live", target=f"tcp://127.0.0.1:{port}", connect_timeout_s=1.0
        ):
            with pytest.raises(LiveMeasurementError, match="cannot connect"):
                measure_spec(live_spec())

    def test_stall_ladder_still_aborts_on_wedged_endpoint(self):
        import socket
        import time

        wedge = socket.create_server(("127.0.0.1", 0))
        port = wedge.getsockname()[1]
        try:
            t0 = time.monotonic()
            with backend_defaults(
                "live",
                target=f"tcp://127.0.0.1:{port}",
                progress_timeout_s=1.0,
                stall_warn_s=0.2,
                stall_probe_s=0.5,
            ):
                with pytest.raises(
                    LiveMeasurementError, match="no response progress"
                ):
                    measure_spec(live_spec())
            assert time.monotonic() - t0 < 5.0
        finally:
            wedge.close()

    def test_watchdog_options_reachable_and_validated(self):
        from repro.live.driver import LiveOptions

        opts = LiveOptions(stall_warn_s=0.5, stall_probe_s=2.0)
        assert opts.stall_warn_s == 0.5
        with pytest.raises(ValueError):
            LiveOptions(max_lost_connection_fraction=1.5)
        with pytest.raises(ValueError):
            LiveOptions(reconnect_attempts=-1)

    def test_clean_live_run_not_degraded(self):
        srv = serve_in_thread(
            RefServerConfig(service={"type": "constant", "value": 500.0})
        )
        try:
            result = self.run_live(srv.target, live_spec())
        finally:
            srv.stop()
        assert result.live_health["degraded"] is False
        assert result.guards.verdict("degradation").status == PASS


class TestRefServerMisbehaviorModes:
    def test_config_validates(self):
        with pytest.raises(ValueError):
            RefServerConfig(drop_after=-1)
        with pytest.raises(ValueError):
            RefServerConfig(accept_delay_s=-0.1)
        with pytest.raises(ValueError):
            RefServerConfig(drift_us_per_request=-1.0)

    def test_service_drift_ramps(self):
        from repro.live.refserver import ReferenceServer

        srv = ReferenceServer(
            RefServerConfig(
                service={"type": "constant", "value": 100.0},
                drift_us_per_request=10.0,
            )
        )
        first = srv._completion_time(0.0)
        srv.requests_seen = 1_000
        later = srv._completion_time(0.0)
        assert later - first == pytest.approx(10.0 * 1_000 * 1e-6, rel=0.01)


# ----------------------------------------------------------------------
# strict enforcement: facade and CLI
# ----------------------------------------------------------------------
class TestStrictEnforcement:
    def test_facade_strict_raises_on_failing_fixture(self):
        from repro.guards.fixtures import build_fixture_spec

        spec = build_fixture_spec("client_saturation")
        with pytest.raises(GuardFailureError, match="client_saturation"):
            repro.run(spec, strict_guards=True)
        # Advisory (the default) returns the result, verdicts attached.
        result = repro.run(spec)
        assert result.guards.verdict("client_saturation").status == FAIL

    def test_enforcement_scope_raises_inside_measure(self):
        from repro.guards.fixtures import build_fixture_spec

        spec = build_fixture_spec("client_saturation")
        with guard_enforcement("strict"):
            with pytest.raises(GuardFailureError):
                measure_spec(spec)
        measure_spec(spec)  # advisory again outside the scope

    def test_cli_strict_guards_exit_code_4(self):
        from repro.cli import main

        assert (
            main(["guards", "run", "coordinated_omission", "--strict-guards"])
            == 4
        )

    def test_cli_guards_selftest_passes(self, capsys):
        from repro.cli import main

        assert main(["guards", "run", "coordinated_omission", "clean"]) == 0
        out = capsys.readouterr().out
        assert "[ok ]" in out and "MISS" not in out

    def test_cli_guards_list(self, capsys):
        from repro.cli import main

        assert main(["guards", "list"]) == 0
        out = capsys.readouterr().out
        for name in available_detectors():
            assert name in out

    def test_procedure_surfaces_guard_status(self):
        # ProcedureResult rolls per-run audits up to one status.
        from repro.core.procedure import (
            MeasurementProcedure,
            ProcedureConfig,
        )

        proc = MeasurementProcedure(
            ProcedureConfig(
                workload=MemcachedWorkload(),
                target_utilization=0.3,
                num_instances=2,
                warmup_samples=100,
                measurement_samples_per_instance=600,
                min_runs=2,
                max_runs=2,
            )
        )
        result = proc.run()
        assert result.guards_status in (PASS, WARN, FAIL)
        for run_index, verdict in result.guard_findings():
            assert isinstance(run_index, int)
            assert verdict.status in (WARN, FAIL)
