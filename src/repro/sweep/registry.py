"""Factories resolving sweep-spec names to topologies and algorithms.

Sweep points travel between processes as plain dicts; workers rebuild the
actual :class:`~repro.sim.network.RadioNetwork` and algorithm objects
through these registries.  Keeping construction here (rather than pickling
live objects) makes points cacheable by content and cheap to ship to a
worker pool.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from .. import topology
from ..baselines import (
    BGIBroadcast,
    CentralizedGreedySchedule,
    RoundRobinBroadcast,
    SelectiveFamilyBroadcast,
)
from ..core import KnownRadiusKP, OptimalRandomizedBroadcasting
from ..sim.errors import ConfigurationError
from ..sim.network import RadioNetwork

__all__ = ["TOPOLOGIES", "ALGORITHMS", "build_topology", "build_algorithm"]

#: Topology family name -> factory over keyword parameters.
TOPOLOGIES: dict[str, Callable[..., RadioNetwork]] = {
    "path": lambda n: topology.path(n),
    "star": lambda n: topology.star(n),
    "grid": lambda rows, cols: topology.grid(rows, cols),
    "tree": lambda n, seed=0: topology.random_tree(n, seed=seed),
    "gnp": lambda n, p, seed=0: topology.gnp_connected(n, p, seed=seed),
    "geometric": lambda n, seed=0: topology.random_geometric(n, seed=seed),
    "layered": lambda n, depth: topology.uniform_complete_layered(n, depth),
    "km-layered": lambda n, depth, seed=0: topology.km_hard_layered(n, depth, seed=seed),
}

#: Algorithm name -> factory taking the network plus keyword parameters.
#: All entries are oblivious (vectorisable), so sweep points run on the
#: batched array engine; `repeat_broadcast` would run a non-vectorised
#: factory on the batched event engine instead.
ALGORITHMS: dict[str, Callable[..., Any]] = {
    "kp-known-d": lambda net, d=None, stage_constant=4660, extra_step="universal": KnownRadiusKP(
        net.r,
        d if d is not None else max(1, net.radius),
        stage_constant=stage_constant,
        extra_step=extra_step,
    ),
    "kp-optimal": lambda net, stage_constant=8, max_d=None: OptimalRandomizedBroadcasting(
        net.r, stage_constant=stage_constant, max_d=max_d
    ),
    "bgi": lambda net, phase_len=None: BGIBroadcast(net.r, phase_len=phase_len),
    "round-robin": lambda net: RoundRobinBroadcast(net.r),
    "selective-family": lambda net, family_kind="random", seed=0: SelectiveFamilyBroadcast(
        net.r, family_kind, seed=seed
    ),
    "centralized": lambda net: CentralizedGreedySchedule(net),
}


def build_topology(name: str, params: Mapping[str, Any]) -> RadioNetwork:
    """Instantiate a topology family with concrete parameters."""
    try:
        factory = TOPOLOGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology family {name!r}; available: {sorted(TOPOLOGIES)}"
        ) from None
    try:
        return factory(**dict(params))
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for topology {name!r}: {exc}") from exc


def build_algorithm(name: str, network: RadioNetwork, params: Mapping[str, Any]):
    """Instantiate an algorithm for ``network`` with concrete parameters."""
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        ) from None
    try:
        return factory(network, **dict(params))
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for algorithm {name!r}: {exc}") from exc
