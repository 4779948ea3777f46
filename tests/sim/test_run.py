"""run_broadcast / repeat_broadcast drivers and BroadcastResult."""

from __future__ import annotations

import pytest

from repro.baselines import BGIBroadcast, InterleavedBroadcast, KnownNeighborsDFS
from repro.baselines.round_robin import RoundRobinBroadcast
from repro.core import CompleteLayeredBroadcast, SelectAndSend
from repro.core.randomized import KnownRadiusKP
from repro.obs.metrics import MetricsRegistry
from repro.sim.errors import BroadcastIncompleteError, ConfigurationError
from repro.sim.faults import FaultPlan
from repro.sim.run import (
    ENGINE_CHOICES,
    ENGINES,
    repeat_broadcast,
    run_broadcast,
)
from repro.sim.trace import TraceLevel
from repro.topology import path, star, uniform_complete_layered
from repro.topology.csr import gnp_random_csr


def test_result_fields_round_robin_path():
    net = path(6)
    result = run_broadcast(net, RoundRobinBroadcast(net.r))
    assert result.completed
    assert result.n == 6 and result.radius == 5
    assert result.algorithm.startswith("round-robin")
    assert result.informed == 6
    assert result.wake_times[0] == -1
    assert result.time == max(result.wake_times.values()) + 1


def test_layer_times_monotone():
    net = uniform_complete_layered(30, 3)
    result = run_broadcast(net, RoundRobinBroadcast(net.r))
    times = result.layer_times
    assert times[0] == -1
    assert all(a is not None for a in times)
    assert list(times) == sorted(times)


def test_layer_times_partial_when_incomplete():
    net = path(8)
    # Labels along the path are sorted, so round-robin pipelines one hop
    # per slot; four slots leave the far end of the path uninformed.
    result = run_broadcast(net, RoundRobinBroadcast(net.r), max_steps=4)
    assert not result.completed
    assert result.layer_times[-1] is None
    assert result.time == 4


def test_require_completion_raises_with_partial_result():
    net = path(8)
    with pytest.raises(BroadcastIncompleteError) as exc:
        run_broadcast(net, RoundRobinBroadcast(net.r), max_steps=5, require_completion=True)
    assert exc.value.result is not None
    assert exc.value.result.informed < 8


def test_slowdown_vs_radius():
    net = path(4)
    result = run_broadcast(net, RoundRobinBroadcast(net.r))
    assert result.slowdown_vs_radius == result.time / 3


def test_trace_level_passthrough():
    net = star(5)
    result = run_broadcast(net, RoundRobinBroadcast(net.r), trace_level=TraceLevel.FULL)
    assert result.trace.steps  # full per-step records present


def test_repeat_broadcast_deterministic_runs_once():
    net = path(5)
    results = repeat_broadcast(net, RoundRobinBroadcast(net.r), runs=10)
    assert len(results) == 1


def test_repeat_broadcast_randomized_uses_distinct_seeds():
    net = uniform_complete_layered(40, 4)
    results = repeat_broadcast(net, KnownRadiusKP(net.r, 4), runs=5, base_seed=100)
    assert len(results) == 5
    assert [r.seed for r in results] == [100, 101, 102, 103, 104]
    assert len({r.time for r in results}) > 1  # randomness shows up


def test_repeat_broadcast_rejects_zero_runs():
    net = path(3)
    with pytest.raises(ConfigurationError):
        repeat_broadcast(net, RoundRobinBroadcast(net.r), runs=0)


def test_same_seed_reproducible():
    net = uniform_complete_layered(40, 4)
    algo = KnownRadiusKP(net.r, 4)
    a = run_broadcast(net, algo, seed=3)
    b = run_broadcast(net, algo, seed=3)
    assert a.time == b.time
    assert a.wake_times == b.wake_times


class _HintlessRoundRobin:
    """Duck-typed algorithm: the protocol surface, minus ``max_steps_hint``.

    Regression fixture — ``run_broadcast`` used to call
    ``algorithm.max_steps_hint`` unconditionally and crashed with
    AttributeError on objects like this one.
    """

    name = "hintless-round-robin"

    def __init__(self, r: int):
        self._inner = RoundRobinBroadcast(r)

    def create(self, label, r, rng):
        return self._inner.create(label, r, rng)


def test_default_max_steps_prefers_the_algorithm_hint():
    from repro.sim import default_max_steps

    net = path(6)
    algo = RoundRobinBroadcast(net.r)
    assert default_max_steps(net, algo) == algo.max_steps_hint(net.n, net.r)


def test_default_max_steps_fallback_is_pinned():
    from repro.sim import default_max_steps

    net = path(6)
    expected = 64 * net.n * (net.n.bit_length() + 1)
    assert default_max_steps(net, _HintlessRoundRobin(net.r)) == expected


def test_run_broadcast_accepts_hintless_algorithms():
    net = path(6)
    result = run_broadcast(net, _HintlessRoundRobin(net.r))
    assert result.completed
    assert result.algorithm == "hintless-round-robin"


# ---------------------------------------------------------------------------
# The single-run engine table


def _layered():
    return uniform_complete_layered(30, 4, relabel_seed=1)


AUTO_CASES = [
    # (id, algorithm factory, collision detection, engine auto must pick)
    ("kp", lambda net: KnownRadiusKP(net.r, max(1, net.radius)), False, "macro"),
    ("bgi", lambda net: BGIBroadcast(net.r), False, "macro"),
    ("round-robin", lambda net: RoundRobinBroadcast(net.r), False, "macro"),
    ("select-and-send", lambda net: SelectAndSend(), False, "event"),
    ("complete-layered", lambda net: CompleteLayeredBroadcast(), False, "event"),
    ("dfs", lambda net: KnownNeighborsDFS(net), False, "reference"),
    ("interleaved", lambda net: InterleavedBroadcast(
        RoundRobinBroadcast(net.r), SelectAndSend()), False, "reference"),
    ("round-robin-cd", lambda net: RoundRobinBroadcast(net.r), True, "reference"),
    ("complete-layered-cd", lambda net: CompleteLayeredBroadcast(native_cd=True),
     True, "event"),
]


@pytest.mark.parametrize(
    "make_algo, collision_detection, expected",
    [case[1:] for case in AUTO_CASES],
    ids=[case[0] for case in AUTO_CASES],
)
def test_auto_picks_the_table_engine_and_matches_reference(
    make_algo, collision_detection, expected
):
    net = _layered()
    auto = run_broadcast(
        net, make_algo(net), seed=3, collision_detection=collision_detection
    )
    reference = run_broadcast(
        net, make_algo(net), seed=3, collision_detection=collision_detection,
        engine="reference",
    )
    assert auto.engine == expected
    assert reference.engine == "reference"
    assert auto.completed
    assert auto == reference
    assert auto.wake_times == reference.wake_times


def test_every_table_engine_reports_itself():
    net = _layered()
    algo = RoundRobinBroadcast(net.r)
    for name in ENGINES:
        assert run_broadcast(net, algo, engine=name).engine == name
    assert ENGINE_CHOICES == ("auto", "reference", "event", "fast", "macro")


def test_instrumented_macro_request_reports_the_engine_that_ran():
    net = _layered()
    algo = RoundRobinBroadcast(net.r)
    plain = run_broadcast(net, algo, engine="macro")
    for kwargs in ({"metrics": MetricsRegistry()}, {"faults": FaultPlan()},
                   {"trace_level": TraceLevel.FULL}):
        instrumented = run_broadcast(net, algo, **kwargs)
        assert instrumented.engine == "fast"
        assert instrumented.wake_times == plain.wake_times


def test_batch_and_serial_repeat_report_their_engines():
    net = _layered()
    kp = KnownRadiusKP(net.r, max(1, net.radius))
    assert {r.engine for r in repeat_broadcast(net, kp, runs=2)} == {"batched_fast"}
    assert {
        r.engine for r in repeat_broadcast(net, kp, runs=2, engine="reference")
    } == {"reference"}
    (ss,) = repeat_broadcast(net, SelectAndSend(), runs=2)
    assert ss.engine == "batched_event"


def test_engine_is_neither_compared_nor_serialised():
    from repro.sim.serialization import result_from_dict, result_to_dict

    net = _layered()
    result = run_broadcast(net, RoundRobinBroadcast(net.r))
    document = result_to_dict(result)
    assert "engine" not in document
    loaded = result_from_dict(document)
    assert loaded.engine is None
    assert loaded == result


def test_unknown_engine_names_the_choices():
    net = path(4)
    with pytest.raises(ConfigurationError) as excinfo:
        run_broadcast(net, RoundRobinBroadcast(net.r), engine="warp")
    message = str(excinfo.value)
    assert "'warp'" in message
    for name in ENGINE_CHOICES:
        assert repr(name) in message


@pytest.mark.parametrize("engine", ["fast", "macro"])
def test_array_engines_refuse_collision_detection(engine):
    net = path(4)
    with pytest.raises(ConfigurationError, match="collision detection"):
        run_broadcast(
            net, RoundRobinBroadcast(net.r), engine=engine,
            collision_detection=True,
        )


@pytest.mark.parametrize("engine", ["fast", "macro"])
def test_array_engines_refuse_adaptive_algorithms(engine):
    with pytest.raises(ConfigurationError, match="only oblivious"):
        run_broadcast(path(4), SelectAndSend(), engine=engine)


@pytest.mark.parametrize("engine", ["reference", "event"])
def test_csr_network_converts_on_the_per_node_engines(engine):
    csr = gnp_random_csr(40, 0.15, seed=2)
    kp = KnownRadiusKP(csr.r, max(1, csr.radius))
    macro = run_broadcast(csr, kp, seed=1)
    per_node = run_broadcast(csr, kp, seed=1, engine=engine)
    assert (macro.engine, per_node.engine) == ("macro", engine)
    assert per_node == macro
    adaptive = run_broadcast(csr, SelectAndSend(), engine=engine)
    assert adaptive.completed
    assert adaptive == run_broadcast(csr, SelectAndSend())  # auto: event


def test_known_topology_baselines_convert_a_csr_network():
    from repro.baselines import CentralizedGreedySchedule

    csr = gnp_random_csr(40, 0.15, seed=2)
    for algo in (KnownNeighborsDFS(csr), CentralizedGreedySchedule(csr)):
        result = run_broadcast(csr, algo, require_completion=True)
        assert result == run_broadcast(
            csr.to_radio_network(), algo, engine="reference"
        )
