"""Seeded decorrelated-jitter backoff shared by every retry path.

One schedule — the :class:`~repro.exec.api.RetryPolicy` semantics
``delay = min(cap, uniform(base, prev * 3))`` — paces every retry in
the library, and every stream is *reproducible*: the same
``(seed, run_index, instance, slot)`` tuple yields the identical delay
sequence on every run, so a flaky-looking retry storm can be replayed
exactly.  The three consumers each own a stream per identity:

* **cluster requeues** (:mod:`repro.exec.distributed`): one RNG per
  spec, ``jitter_rng(retry.jitter_seed, 0, spec_index, 0)``, so a
  spec's delays do not depend on the order in which other specs fail;
* **live reconnects** (:mod:`repro.live.driver`): one RNG per
  ``(seed, run_index, instance_index, connection_slot)``;
* **fleet respawns** (:mod:`repro.live.fleet`): one RNG per
  ``(seed, run_index, process_slot, RESPAWN_CHANNEL)``.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = [
    "RESPAWN_CHANNEL",
    "jitter_rng",
    "next_delay",
    "backoff_schedule",
]

#: The ``slot`` value that separates the process-respawn RNG stream
#: from the per-connection streams (connection slots are small
#: non-negative ints; this cannot collide with one).
RESPAWN_CHANNEL = 0xF1EE7


def jitter_rng(
    seed: int, run_index: int, instance: int, slot: int
) -> np.random.Generator:
    """The seeded generator behind one backoff schedule.

    Seeding with the full identity tuple (not a hash of it) keeps the
    streams independent across instances and slots — numpy's
    ``SeedSequence`` treats each tuple element as entropy.
    """
    return np.random.default_rng(
        (abs(int(seed)), int(run_index), int(instance), int(slot))
    )


def next_delay(
    rng: np.random.Generator, base_s: float, cap_s: float, prev_s: float
) -> float:
    """One decorrelated-jitter step: ``min(cap, uniform(base, prev*3))``."""
    return min(float(cap_s), float(rng.uniform(base_s, prev_s * 3.0)))


def backoff_schedule(
    rng: np.random.Generator, base_s: float, cap_s: float, attempts: int
) -> List[float]:
    """The successive sleep delays across ``attempts`` attempts.

    Attempt 0 is immediate; each later attempt sleeps first, then a
    fresh decorrelated draw becomes the *next* delay — exactly the
    consuming loops' order, variate for variate, so tests can compare
    a recorded schedule against this function verbatim.  Returns
    ``attempts - 1`` delays (an ``attempts <= 1`` budget never sleeps).
    """
    if attempts < 0:
        raise ValueError("attempts must be >= 0")
    delays: List[float] = []
    delay = float(base_s)
    for attempt in range(attempts):
        if attempt:
            delays.append(delay)
            delay = next_delay(rng, base_s, cap_s, delay)
    return delays
