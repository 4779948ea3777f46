"""The sweep cache's semantics tag must move whenever results do.

:data:`~repro.sweep.cache.CODE_VERSION` enters every cache key, and
:data:`~repro.sweep.cache.CODE_FINGERPRINT` pins what the engines compute
under that version: a SHA-256 digest of wake times and fault counters
over a small canonical matrix (KP and BGI Decay; the batched and the
single-run engine; with and without a fault plan).  An engine change that
alters any of them fails here until ``CODE_VERSION`` is bumped and the
digest re-pinned, so stale cache entries can never be served as current.
"""

from __future__ import annotations

import hashlib
import json

from repro.baselines import BGIBroadcast
from repro.core import KnownRadiusKP
from repro.sim import FaultPlan
from repro.sim.fast import run_broadcast_batch, run_broadcast_fast
from repro.sweep.cache import CODE_FINGERPRINT, CODE_VERSION
from repro.topology import gnp_connected, km_hard_layered

SEEDS = [0, 1, 2, 3]

ALGORITHMS = {
    "kp-known-d": lambda net: KnownRadiusKP(net.r, net.radius, stage_constant=4),
    "bgi": lambda net: BGIBroadcast(net.r),
}

TOPOLOGIES = {
    "km-hard": lambda: km_hard_layered(64, 5, seed=3),
    "gnp": lambda: gnp_connected(40, 0.12, seed=7),
}


def _plan(net) -> FaultPlan:
    labels = sorted(set(net.nodes) - {net.source})
    return FaultPlan(
        crashes=((labels[-1], 11),),
        jams=tuple((slot, labels[0]) for slot in range(5)),
        loss_probability=0.25,
        wake_delays=((labels[1], 6),),
        seed=17,
    )


def _record(result) -> list:
    counters = result.fault_counters
    return [
        result.seed,
        result.completed,
        result.time,
        sorted(result.wake_times.items()),
        None if counters is None else [
            counters.crashed_nodes, counters.jammed_slots,
            counters.lost_messages, counters.delayed_wakes,
        ],
    ]


def semantic_fingerprint() -> str:
    """SHA-256 over the canonical matrix's wake times and fault counters."""
    cells = []
    for topology, make_net in sorted(TOPOLOGIES.items()):
        net = make_net()
        for algorithm, make_algo in sorted(ALGORITHMS.items()):
            for planned in (False, True):
                plan = _plan(net) if planned else None
                batched = run_broadcast_batch(
                    net, make_algo(net), seeds=SEEDS, faults=plan,
                    engine="batched_fast",
                )
                single = [
                    run_broadcast_fast(net, make_algo(net), seed=seed, faults=plan)
                    for seed in SEEDS
                ]
                for engine, results in (("batched", batched), ("single", single)):
                    cells.append([
                        topology, algorithm, planned, engine,
                        [_record(r) for r in results],
                    ])
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


def test_results_match_the_fingerprint_pinned_for_this_code_version():
    assert semantic_fingerprint() == CODE_FINGERPRINT, (
        f"engine results differ from those pinned for CODE_VERSION "
        f"{CODE_VERSION!r}: bump CODE_VERSION in repro/sweep/cache.py and "
        f"re-pin CODE_FINGERPRINT to the new digest"
    )
