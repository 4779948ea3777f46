"""The crash -> jam -> loss -> wake-delay rule: scalar form == array form.

The per-node engines decide one would-be delivery at a time with
``SynchronousEngine._hears``; the oblivious array engine decides a whole
``(trials, n)`` slot with :func:`repro.sim.faults.apply_delivery_faults`.
This property holds the two written forms of the rule to each other over
random fault plans, receivers, awake and alive states, and slots:
the same receivers hear, the same sleepers wake, and each trial counts
the same lost messages and delayed wakes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import RoundRobinBroadcast
from repro.sim import FaultPlan, RadioNetwork, SynchronousEngine
from repro.sim.faults import apply_delivery_faults, compile_faults, derive_fault_seed

SLOTS = 8


@st.composite
def delivery_cases(draw):
    n = draw(st.integers(2, 10))
    others = draw(st.sets(st.integers(1, 60), min_size=n - 1, max_size=n - 1))
    labels = [0, *sorted(others)]  # gappy labels; 0 is the source
    # A path over the labels; only the label set matters to the rule.
    net = RadioNetwork.undirected(labels, list(zip(labels, labels[1:])))
    node = st.sampled_from(labels)
    slot = st.integers(0, SLOTS)
    crashes = draw(st.dictionaries(node, slot, max_size=n))
    delays = draw(st.dictionaries(node, slot, max_size=n))
    plan = FaultPlan(
        crashes=tuple(crashes.items()),
        jams=tuple(draw(st.sets(st.tuples(slot, node), max_size=2 * n))),
        loss_probability=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        wake_delays=tuple(delays.items()),
        seed=draw(st.integers(0, 2**32)),
    )
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
    shape = (len(seeds), n)
    cells = st.lists(st.booleans(), min_size=len(seeds) * n, max_size=len(seeds) * n)
    delivered = np.array(draw(cells)).reshape(shape)
    awake = np.array(draw(cells)).reshape(shape)
    return net, plan, seeds, delivered, awake, draw(slot)


@settings(max_examples=200, deadline=None)
@given(case=delivery_cases())
def test_scalar_rule_matches_array_rule(case):
    net, plan, seeds, delivered, awake, step = case
    labels = np.array(net.nodes, dtype=np.int64)
    index = {int(label): i for i, label in enumerate(labels)}
    cf = compile_faults(
        plan, net, index, labels,
        [derive_fault_seed(plan.seed, seed) for seed in seeds],
    )
    alive = cf.crash_slots > step if cf.has_crashes else None
    newly, heard, lost, delayed = apply_delivery_faults(
        cf, delivered.copy(), awake, alive, step
    )

    for t, seed in enumerate(seeds):
        engine = SynchronousEngine(
            net, RoundRobinBroadcast(net.r), seed=seed, faults=plan
        )
        jam_set = engine._jams_by_slot.get(step, frozenset())
        for i, label in enumerate(labels.tolist()):
            hears = bool(delivered[t, i]) and engine._hears(
                label, step, jam_set, asleep=not awake[t, i]
            )
            assert heard[t, i] == hears, (t, label)
            assert newly[t, i] == (hears and not awake[t, i]), (t, label)
        assert engine.fault_counters.lost_messages == lost[t], t
        assert engine.fault_counters.delayed_wakes == delayed[t], t
