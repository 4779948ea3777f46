"""Event-engine specifics beyond the shared conformance matrix.

The slot-for-slot identity matrix (adaptive cases x fault plans x
engines, incl. identical failures under loss) moved to
``test_conformance.py`` on top of the harness in ``conformance.py``.
This module keeps what is particular to the *serial* event engine and
the hint contract itself:

* the step-hook stream is gap-free across compressed slots;
* a hypothesis property that :meth:`Protocol.quiet_until` promises are
  honest — a protocol that hints quiet through slot ``s`` must return
  ``None`` from ``next_action`` on every polled slot before ``s``
  (checked on the reference engine, which polls every slot, under
  randomly drawn topologies and fault plans);
* unit coverage of :class:`~repro.core.echo.QuietEchoSchedule` hint
  values and :meth:`FaultPlan.event_slots`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompleteLayeredBroadcast, SelectAndSend
from repro.core.echo import QuietEchoSchedule
from repro.sim import FaultPlan, QUIET_FOREVER, run_broadcast
from repro.sim.errors import ProtocolViolationError
from repro.topology import path, uniform_complete_layered

from .conformance import HintCheckedAlgorithm, adaptive_faulty_networks


def test_step_hook_sees_every_compressed_slot():
    """The step-hook stream must contain one call per slot — including
    the slots the event engine fast-forwarded over in a single jump."""
    from repro.sim import SynchronousEngine
    from repro.sim.event import EventDrivenEngine

    net = path(24, relabel="shuffled", seed=5)
    streams = {}
    for name, engine_cls in (
        ("reference", SynchronousEngine),
        ("event", EventDrivenEngine),
    ):
        hooked: list[tuple[int, tuple[int, ...]]] = []
        engine = engine_cls(
            net, SelectAndSend(),
            step_hook=lambda step, tx: hooked.append((step, tx)),
        )
        engine.run(4000)
        streams[name] = hooked
    assert streams["event"] == streams["reference"]
    # Sanity: the stream really is per-slot and gap-free.
    assert [step for step, _ in streams["event"]] == list(
        range(len(streams["event"]))
    )


# ---------------------------------------------------------------------------
# Hint honesty: quiet promises can never hide an action.


@settings(max_examples=25, deadline=None)
@given(case=adaptive_faulty_networks())
def test_quiet_until_never_hides_an_action(case):
    net, plan = case
    try:
        run_broadcast(
            net,
            HintCheckedAlgorithm(SelectAndSend()),
            faults=plan,
            require_completion=False,
            max_steps=3000,
            engine="reference",
        )
    except ProtocolViolationError:
        # Echo is not fault-tolerant: a crash or jam mid-procedure can make
        # its outcomes inconsistent and abort the run.  That is an algorithm
        # property, not a hint violation — the wrapper's assertions (plain
        # AssertionError) are what this test is about, and they fired on
        # every polled slot up to the abort.
        pass


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=48),
    depth=st.integers(min_value=2, max_value=6),
    relabel_seed=st.integers(min_value=0, max_value=1000),
)
def test_quiet_until_never_hides_an_action_layered(n, depth, relabel_seed):
    depth = min(depth, n - 2)
    net = uniform_complete_layered(n, depth, relabel_seed=relabel_seed)
    run_broadcast(
        net,
        HintCheckedAlgorithm(CompleteLayeredBroadcast()),
        require_completion=True,
        engine="reference",
    )


# ---------------------------------------------------------------------------
# Unit coverage for the hint itself.


def test_quiet_echo_schedule_hint_values():
    class _Node(QuietEchoSchedule):
        def __init__(self):
            self.stopped = False
            self.scheduled = {}
            self._awaiting = None

    node = _Node()
    # Nothing scheduled, nothing awaited: quiet forever (until spoken to).
    assert node.quiet_until(3) == QUIET_FOREVER
    # Earliest scheduled slot at or after `step` bounds the promise.
    node.scheduled = {10: "x", 7: "y", 2: "z"}
    assert node.quiet_until(3) == 7
    assert node.quiet_until(8) == 10
    assert node.quiet_until(11) == QUIET_FOREVER
    # A slot with a scheduled transmission short-circuits: busy now.
    assert node.quiet_until(7) == 7
    assert node.quiet_until(2) == 2
    # Inside an Echo observation window silence is information: no promise.
    node._awaiting = ("announce", 4)
    assert node.quiet_until(5) == 5
    assert node.quiet_until(6) == 6
    # Before the window opens, the window's first slot caps the promise.
    assert node.quiet_until(4) == 5
    # A stopped node never acts again.
    node.stopped = True
    assert node.quiet_until(0) == QUIET_FOREVER


def test_fault_plan_event_slots():
    plan = FaultPlan(
        crashes=((5, 12), (6, 3)),
        jams=((0, 5), (9, 6)),
        loss_probability=0.5,
        wake_delays=((7, 20),),
        seed=1,
    )
    # Crash slots, jam slots, and wake-delay expiries, sorted and deduped;
    # loss has no schedule (it is per-delivery) so it contributes nothing.
    assert plan.event_slots() == (0, 3, 9, 12, 20)
