"""Tests for experiment machinery: scales, caching, rendering."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.common import (
    HIGH_LOAD,
    LOW_LOAD,
    SCALES,
    attribution_report,
    format_table,
    get_scale,
    make_workload,
)
from repro.workloads.mcrouter import McrouterWorkload
from repro.workloads.memcached import MemcachedWorkload


class TestScales:
    def test_three_presets(self):
        assert set(SCALES) == {"quick", "default", "paper"}

    def test_paper_scale_matches_paper_replications(self):
        assert SCALES["paper"].replications >= 30

    def test_scales_strictly_ordered_by_cost(self):
        def cost(s):
            return s.replications * s.instances * s.samples_per_instance

        assert cost(SCALES["quick"]) < cost(SCALES["default"]) < cost(SCALES["paper"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("giga")

    def test_loads_match_paper_regime(self):
        assert 0 < LOW_LOAD < HIGH_LOAD < 1
        assert HIGH_LOAD == pytest.approx(0.7)  # Table IV's operating point


class TestMakeWorkload:
    def test_known_workloads(self):
        assert isinstance(make_workload("memcached"), MemcachedWorkload)
        assert isinstance(make_workload("mcrouter"), McrouterWorkload)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_workload("redis")


class TestStudyCache:
    def test_same_key_returns_same_object(self):
        a = attribution_report("memcached", 0.6, scale="quick", seed=99, taus=(0.5,))
        b = attribution_report("memcached", 0.6, scale="quick", seed=99, taus=(0.5,))
        assert a is b

    def test_different_seed_different_study(self):
        a = attribution_report("memcached", 0.6, scale="quick", seed=99, taus=(0.5,))
        b = attribution_report("memcached", 0.6, scale="quick", seed=98, taus=(0.5,))
        assert a is not b

    def test_taus_are_part_of_the_key(self, monkeypatch):
        """A second call with other taus gets fits at its own taus, not
        the first call's."""
        tiny = dataclasses.replace(
            SCALES["quick"],
            name="tiny",
            replications=1,
            instances=1,
            samples_per_instance=200,
            warmup=50,
            n_boot=0,
        )
        monkeypatch.setitem(SCALES, "tiny", tiny)
        a = attribution_report("memcached", 0.6, scale="tiny", seed=3, taus=(0.5,))
        b = attribution_report("memcached", 0.6, scale="tiny", seed=3, taus=(0.9, 0.99))
        assert a.taus == (0.5,) and sorted(a.fits) == [0.5]
        assert b.taus == (0.9, 0.99) and sorted(b.fits) == [0.9, 0.99]
        assert attribution_report(
            "memcached", 0.6, scale="tiny", seed=3, taus=[0.5]
        ) is a


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.2345], ["b", 12345.6]],
            title="My Table",
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "alpha" in lines[3]

    def test_float_formatting_rules(self):
        text = format_table(["v"], [[123.456], [1.234], [0.00123], [float("nan")]])
        assert "123" in text
        assert "1.2" in text
        assert "0.00123" in text
        assert "nan" in text

    def test_handles_non_numeric_cells(self):
        text = format_table(["a", "b"], [["x", True], ["y", None]])
        assert "True" in text and "None" in text
