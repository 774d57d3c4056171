"""Seeded digest lock for the DET/ORD fix targets (adaptive PI + faults).

The DET violations fixed by routing ``rng or random.Random(0)`` through
:func:`repro.sim.random.default_stream` were required to be bit-exact
no-ops.  These golden hashes pin the exact seeded behaviour of the
adaptive PI AQM — alone and under the fault-injection pipeline
(``net/faults``) — so any future change to the fallback-RNG plumbing,
the clamp helpers, or the fault machinery that perturbs a single random
draw fails loudly here.

The hashes are over ``ResultMetrics.digest()`` (the same fingerprint the
serial/parallel/cache parity gates compare), serialised with sorted keys.
``random.Random`` (MT19937) and IEEE-754 arithmetic are stable across
platforms and Python versions, so the values are portable.  If a change
*intentionally* alters seeded behaviour, rerun the experiment and update
the constants — in a commit that says so.
"""

import hashlib
import json
from dataclasses import fields, replace

from repro.aqm.adaptive import AdaptivePiAqm
from repro.harness import light_tcp, run_experiment
from repro.harness.factories import NamedAqmFactory
from repro.net.faults import parse_fault_spec

GOLDEN_ADAPTIVE = "4cdd424b5d79dc400098546eb5ee3a441f72dcd73ede0fd86799bcb0e802a0b3"
GOLDEN_ADAPTIVE_FAULTS = (
    "446f119c1940576c0ff1160cbb50f6934e7d254c7b378f50cbe799337c8a4eef"
)


def _digest_hash(result) -> str:
    return hashlib.sha256(
        json.dumps(result.digest(), sort_keys=True).encode()
    ).hexdigest()


def _adaptive_experiment(faults=False):
    exp = light_tcp(NamedAqmFactory(AdaptivePiAqm), duration=4.0, seed=3)
    if faults:
        exp = replace(
            exp,
            faults=(
                parse_fault_spec("burstloss:1.0:0.5"),
                parse_fault_spec("jitter:2.0:1.0"),
            ),
        )
    return exp


def test_adaptive_digest_locked():
    assert _digest_hash(run_experiment(_adaptive_experiment())) == GOLDEN_ADAPTIVE


def test_adaptive_with_faults_digest_locked():
    result = run_experiment(_adaptive_experiment(faults=True))
    assert _digest_hash(result) == GOLDEN_ADAPTIVE_FAULTS


def test_faulted_run_is_run_to_run_deterministic():
    first = run_experiment(_adaptive_experiment(faults=True))
    second = run_experiment(_adaptive_experiment(faults=True))
    assert first.digest() == second.digest()


def test_fallback_stream_matches_historical_seed():
    """default_stream() must stay bit-identical to random.Random(0) —
    the exact fallback every AQM constructor used before the DET fix."""
    import random

    from repro.sim.random import default_stream

    ours = default_stream()
    historical = random.Random(0)
    assert [ours.random() for _ in range(100)] == [
        historical.random() for _ in range(100)
    ]


def test_scheduler_backends_share_the_golden_digest():
    """The one event core still hashes onto the golden values.

    Both golden constants above were minted under the old reference
    heap and reproduced by the timer wheel; the single tuple heap that
    replaced both must reproduce them bit-for-bit, with no backend left
    to select.
    """
    exp = _adaptive_experiment()
    assert not {"scheduler", "link_batching"} & {f.name for f in fields(exp)}
    assert _digest_hash(run_experiment(exp)) == GOLDEN_ADAPTIVE


def test_scheduler_backends_agree_under_faults():
    """Fault-flap timing under the one core: a burst-loss window and a
    jittered AQM timer hash onto the golden faulted digest, so every
    fault event still lands at its exact place in the schedule."""
    result = run_experiment(_adaptive_experiment(faults=True))
    assert _digest_hash(result) == GOLDEN_ADAPTIVE_FAULTS
