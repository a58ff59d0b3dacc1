"""Batched-RNG determinism: the hot path's batching invariant.

The vectorized hot path rests on one property — a block of ``n``
variates drawn from a stream is bit-identical to ``n`` sequential
scalar draws from the same stream — so block size can never change
results.  These tests pin that property at every layer: arrival
processes, workload distributions, :class:`BlockStream`, the workload
samplers, a full end-to-end run, and a frozen golden digest guarding
the whole pipeline against silent drift.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.arrival import (
    BurstyArrivals,
    DeterministicArrivals,
    LognormalArrivals,
    PoissonArrivals,
)
from repro.core.bench import BenchConfig, TestBench
from repro.core.treadmill import TreadmillConfig, TreadmillInstance
from repro.exec.spec import RunSpec
from repro.measure import measure_spec
from repro.workloads.generators import (
    Constant,
    Discrete,
    Exponential,
    GeneralizedPareto,
    Lognormal,
    OperationMix,
    Uniform,
)
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.sampling import BlockStream

SEEDS = [0, 7, 1234]

ARRIVAL_FACTORIES = [
    lambda: PoissonArrivals(50_000.0),
    lambda: DeterministicArrivals(50_000.0),
    lambda: LognormalArrivals(50_000.0, cv=1.5),
    lambda: BurstyArrivals(50_000.0, burst_factor=4.0, burst_fraction=0.2),
]

DISTRIBUTIONS = [
    Constant(5.0),
    Uniform(1.0, 9.0),
    Exponential(4.0),
    Lognormal(mean=100.0, sigma=1.0),
    GeneralizedPareto(scale=10.0, alpha=2.5),
    Discrete([1.0, 2.0, 8.0], [0.5, 0.3, 0.2]),
]


class TestArrivalBatchingInvariant:
    """next_gaps_us(rng, n) == n sequential next_gap_us calls, bit for bit."""

    @pytest.mark.parametrize("make", ARRIVAL_FACTORIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_equals_sequential(self, make, seed):
        # Fresh process objects on both sides: BurstyArrivals carries
        # mutable phase state that must evolve identically.
        batched = make().next_gaps_us(np.random.default_rng(seed), 257)
        scalar_proc = make()
        rng = np.random.default_rng(seed)
        scalar = [scalar_proc.next_gap_us(rng) for _ in range(257)]
        assert batched.tolist() == scalar

    @pytest.mark.parametrize("make", ARRIVAL_FACTORIES)
    def test_block_size_split_irrelevant(self, make):
        # Drawing 7 then 13 must equal drawing 20 at once (induction
        # step of the invariant: refill boundaries cannot matter).
        a_proc, rng_a = make(), np.random.default_rng(99)
        split = np.concatenate(
            [a_proc.next_gaps_us(rng_a, 7), a_proc.next_gaps_us(rng_a, 13)]
        )
        whole = make().next_gaps_us(np.random.default_rng(99), 20)
        assert split.tolist() == whole.tolist()

    @pytest.mark.parametrize("make", ARRIVAL_FACTORIES)
    def test_rejects_empty_block(self, make):
        with pytest.raises(ValueError):
            make().next_gaps_us(np.random.default_rng(0), 0)


class TestDistributionBlockInvariant:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_equals_sequential(self, dist, seed):
        batched = dist.sample_block(np.random.default_rng(seed), 129)
        rng = np.random.default_rng(seed)
        scalar = [dist.sample(rng) for _ in range(129)]
        assert list(batched) == scalar

    @pytest.mark.parametrize("seed", SEEDS)
    def test_operation_mix_block_equals_sequential(self, seed):
        mix = OperationMix({"get": 0.9, "set": 0.1})
        batched = mix.sample_block(np.random.default_rng(seed), 200)
        rng = np.random.default_rng(seed)
        assert batched == [mix.sample(rng) for _ in range(200)]


class TestBlockStream:
    @pytest.mark.parametrize("block", [1, 3, 512])
    def test_stream_matches_direct_draws(self, block):
        dist = Exponential(4.0)
        stream = BlockStream(dist.sample_block, np.random.default_rng(5), block)
        rng = np.random.default_rng(5)
        got = [stream.next() for _ in range(100)]
        # Scalar reference must consume the stream in block-sized
        # chunks too — that IS the equivalence under test: the chunked
        # consumption equals the unchunked one.
        want = [dist.sample(rng) for _ in range(100)]
        assert got == want

    def test_accounting(self):
        stream = BlockStream(Constant(1.0).sample_block, np.random.default_rng(0), 10)
        assert stream.draws == 0 and stream.hit_rate == 0.0
        for _ in range(25):
            stream.next()
        assert stream.draws == 25
        assert stream.refills == 3  # two full blocks + one partial
        assert stream.hit_rate == pytest.approx(1.0 - 3 / 25)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            BlockStream(Constant(1.0).sample_block, np.random.default_rng(0), 0)


class TestSamplerBlockInvariance:
    """Workload samplers: block size must not change the value stream."""

    @staticmethod
    def _requests(block, n=150):
        wl = MemcachedWorkload()
        streams = {}

        def factory(purpose):
            seed = int(hashlib.sha256(purpose.encode()).hexdigest()[:8], 16)
            return streams.setdefault(purpose, np.random.default_rng(seed))

        sampler = wl.request_sampler(
            np.random.default_rng(1), stream_factory=factory, block=block
        )
        return [sampler(i, 0) for i in range(n)]

    @pytest.mark.parametrize("block", [1, 17])
    def test_request_sampler_block_invariant(self, block):
        base = self._requests(512)
        other = self._requests(block)
        for a, b in zip(base, other):
            assert (a.op, a.key_size, a.value_size, a.request_bytes) == (
                b.op,
                b.key_size,
                b.value_size,
                b.request_bytes,
            )

    @pytest.mark.parametrize("block", [1, 17])
    def test_profile_sampler_block_invariant(self, block):
        wl = MemcachedWorkload()
        reqs = self._requests(512)
        base = wl.profile_sampler(np.random.default_rng(2), block=512)
        other = wl.profile_sampler(np.random.default_rng(2), block=block)
        for req in reqs:
            assert base(req) == other(req)


class TestEndToEndBlockInvariance:
    """Two identical benches differing only in rng_block give identical runs."""

    @staticmethod
    def _run(rng_block):
        bench = TestBench(
            BenchConfig(workload=MemcachedWorkload(), seed=3), run_index=0
        )
        inst = TreadmillInstance(
            bench,
            "client0",
            TreadmillConfig(
                rate_rps=20_000.0,
                connections=4,
                warmup_samples=50,
                measurement_samples=400,
                keep_raw=True,
                rng_block=rng_block,
            ),
        )
        inst.start()
        bench.run_to_completion([inst])
        return inst.report()

    def test_metrics_identical_across_block_sizes(self):
        a = self._run(1)
        b = self._run(512)
        assert a.requests_sent == b.requests_sent
        assert a.responses_recorded == b.responses_recorded
        assert np.asarray(a.raw_samples).tolist() == np.asarray(b.raw_samples).tolist()
        assert (
            a.ground_truth_samples.tolist() == b.ground_truth_samples.tolist()
        )
        qs = [0.5, 0.9, 0.99]
        assert a.quantiles(qs) == b.quantiles(qs)


class TestGoldenDigest:
    """Frozen end-to-end digest: any change to the sampled value stream,
    the event ordering, or metric extraction shows up here.

    If this fails after an *intentional* semantic change, bump
    ``SPEC_SCHEMA`` in repro/exec/spec.py, document the drift there,
    and refreeze the digest below.
    """

    #: Schema-4 refreeze (partitionable kernel): per-source-host spine
    #: streams, instance self-stop at the final sample, deterministic
    #: antagonist shutdown — see the SPEC_SCHEMA changelog.
    GOLDEN = "fa6210374f2a5de0"

    #: The declarative twin of ``golden_spec()``: a 1-fleet x 1-pool
    #: scenario the compiler must lower to the *same* plain RunSpec —
    #: same digest, same cache key, same golden result digest.
    GOLDEN_SCENARIO = {
        "name": "degenerate",
        "seed": 11,
        "keep_raw": True,
        "pools": [{"name": "pool", "workload": {"workload": "memcached"}}],
        "fleets": [
            {
                "name": "fl",
                "target": "pool",
                "instances": 2,
                "connections_per_instance": 4,
                "target_utilization": 0.6,
                "warmup_samples": 100,
                "measurement_samples_per_instance": 500,
            }
        ],
    }

    @staticmethod
    def golden_spec() -> RunSpec:
        return RunSpec(
            workload=MemcachedWorkload(),
            target_utilization=0.6,
            num_instances=2,
            connections_per_instance=4,
            warmup_samples=100,
            measurement_samples_per_instance=500,
            keep_raw=True,
            seed=11,
        )

    @staticmethod
    def result_digest(result) -> str:
        blob = json.dumps(
            {
                "metrics": {repr(q): repr(v) for q, v in result.metrics.items()},
                "events": result.events_processed,
                "server_utilization": repr(result.server_utilization),
                "raw": [repr(x) for x in result.raw_samples().tolist()],
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    #: Frozen *spec* digest (the cache/dedup key).  Digest-neutral
    #: fields (``backend`` when "sim", ``scenario`` when None,
    #: ``partitions`` always) are excluded, so specs differing only in
    #: execution strategy share this digest and its cache entries.
    #: Refrozen at SPEC_SCHEMA 4 (partitionable kernel).
    GOLDEN_SPEC_DIGEST = (
        "1b5355e9ef8e2c9d3ef3144e723bb8c496b4a954db782251f275327f0b509006"
    )

    def test_full_run_digest_is_frozen(self):
        assert self.result_digest(measure_spec(self.golden_spec())) == self.GOLDEN

    def test_spec_digest_is_frozen(self):
        assert self.golden_spec().digest() == self.GOLDEN_SPEC_DIGEST

    def test_backend_field_is_digest_neutral(self):
        explicit = self.golden_spec().replace(backend="sim")
        assert explicit.digest() == self.GOLDEN_SPEC_DIGEST

    def test_non_default_backend_changes_the_spec_digest(self):
        live = self.golden_spec().replace(backend="live")
        assert live.digest() != self.GOLDEN_SPEC_DIGEST

    def test_degenerate_scenario_lowers_to_the_golden_spec(self):
        """The bit-identity guarantee of the scenario compiler: the
        degenerate 1x1 scenario *is* the golden RunSpec — digest
        equality means cache entries and results are shared."""
        from repro.scenarios import compile_scenario, scenario_from_json

        (lowered,) = compile_scenario(scenario_from_json(self.GOLDEN_SCENARIO))
        assert lowered.scenario is None
        assert lowered.digest() == self.golden_spec().digest()

    def test_degenerate_scenario_reproduces_the_golden_digest(self):
        from repro.scenarios import compile_scenario, scenario_from_json

        (lowered,) = compile_scenario(scenario_from_json(self.GOLDEN_SCENARIO))
        assert self.result_digest(measure_spec(lowered)) == self.GOLDEN
