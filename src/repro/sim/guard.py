"""Up-front memory estimates for instrumentation that scales with n·steps
and for generated topologies.

A ``TraceLevel.FULL`` trace stores per-slot Python records whose size is
proportional to the number of (node, slot) events; dense per-node metric
tallies store one int64 cell per (trial, node).  At sweep scale both are
fine, but at the million-node scale the macro-step path unlocks they OOM
the process long after the run started — the worst possible failure mode.
These checks run in the drivers *before* any engine state is allocated and
raise a :class:`~repro.sim.errors.ConfigurationError` naming the estimated
footprint and the override, instead of dying mid-run.  Topology builders
check their expected array footprint the same way before sampling.

Overrides: pass ``allow_large=True`` to the driver, or set the environment
variable ``REPRO_ALLOW_LARGE_MEMORY=1`` (useful for CLI runs on big boxes).
"""

from __future__ import annotations

import os

from .errors import ConfigurationError
from .trace import TraceLevel

__all__ = [
    "ALLOW_LARGE_ENV",
    "FULL_TRACE_CELL_LIMIT",
    "DENSE_METRICS_CELL_LIMIT",
    "TOPOLOGY_BYTES_LIMIT",
    "check_memory_budget",
    "check_topology_budget",
]

#: Environment override; any non-empty value other than "0" disables the guard.
ALLOW_LARGE_ENV = "REPRO_ALLOW_LARGE_MEMORY"

#: Maximum ``n * max_steps`` cells for a FULL trace before the guard trips.
#: 10^9 potential (node, slot) events estimate to roughly 8 GiB of trace
#: records — beyond what a run should allocate without an explicit opt-in.
FULL_TRACE_CELL_LIMIT = 1_000_000_000

#: Maximum ``trials * n`` cells for dense per-node metric tallies
#: (``transmissions_per_node``); 2^28 int64 cells are 2 GiB.
DENSE_METRICS_CELL_LIMIT = 1 << 28

#: Estimated bytes per FULL-trace (node, slot) cell.  Transmitter /
#: delivery / collision tuples hold boxed ints, so the true footprint is
#: workload-dependent; 8 bytes per potential cell is the deliberate
#: lower-bound estimate the error message reports.
_TRACE_BYTES_PER_CELL = 8

_METRICS_BYTES_PER_CELL = 8  # one int64 tally per (trial, node)

#: Maximum estimated bytes of a generated topology's arrays: 4 GiB, about
#: 20x the 10^6-node, average-degree-12 G(n, p) instance (~200 MB).
TOPOLOGY_BYTES_LIMIT = 1 << 32

#: int64 words per expected edge while a topology is assembled: the
#: sampled pair and its two CSR entries.
_TOPOLOGY_WORDS_PER_EDGE = 4


def _override_active() -> bool:
    value = os.environ.get(ALLOW_LARGE_ENV, "")
    return value not in ("", "0")


def check_memory_budget(
    n: int,
    max_steps: int,
    trace_level: TraceLevel = TraceLevel.NONE,
    trials: int = 1,
    dense_metrics: bool = False,
    allow_large: bool = False,
) -> None:
    """Refuse instrumentation whose estimated footprint exceeds the limits.

    Args:
        n: Network size.
        max_steps: The run's step budget (the resolved value, after
            ``default_max_steps``).
        trace_level: Requested trace detail; only ``FULL`` is guarded —
            ``PROGRESS`` stores one int per executed slot and never
            approaches these scales.
        trials: Batch width (1 for single runs).
        dense_metrics: Whether the driver would allocate per-node tallies
            (true exactly when a metrics registry was passed).
        allow_large: Caller override (``allow_large=True`` on the driver).

    Raises:
        ConfigurationError: With the estimated bytes and both overrides
            named, when a limit is exceeded and no override is active.
    """
    if allow_large or _override_active():
        return
    if trace_level is TraceLevel.FULL:
        cells = n * max_steps
        if cells > FULL_TRACE_CELL_LIMIT:
            est = cells * trials * _TRACE_BYTES_PER_CELL
            raise ConfigurationError(
                f"TraceLevel.FULL on n={n} with max_steps={max_steps} "
                f"(x{trials} trials) estimates to >= {est:,} bytes of trace "
                f"records (n * max_steps = {cells:,} cells, limit "
                f"{FULL_TRACE_CELL_LIMIT:,}). Lower max_steps, drop to "
                f"TraceLevel.PROGRESS, or override with allow_large=True "
                f"(or {ALLOW_LARGE_ENV}=1)."
            )
    if dense_metrics:
        cells = trials * n
        if cells > DENSE_METRICS_CELL_LIMIT:
            est = cells * _METRICS_BYTES_PER_CELL
            raise ConfigurationError(
                f"dense per-node metrics on n={n} with trials={trials} "
                f"estimate to {est:,} bytes of tallies (trials * n = "
                f"{cells:,} cells, limit {DENSE_METRICS_CELL_LIMIT:,}). "
                f"Run without a metrics registry, batch fewer trials, or "
                f"override with allow_large=True (or {ALLOW_LARGE_ENV}=1)."
            )


def check_topology_budget(n: int, edges: float, allow_large: bool = False) -> None:
    """Refuse a topology whose estimated arrays exceed the limit.

    The estimate is ``8 * (n + 4 * edges)`` bytes: one int64 per node and
    four per expected edge.  Generators call this before sampling.

    Raises:
        ConfigurationError: With the estimated bytes and both overrides
            named, when the limit is exceeded and no override is active.
    """
    if allow_large or _override_active():
        return
    est = 8 * (n + _TOPOLOGY_WORDS_PER_EDGE * edges)
    if est > TOPOLOGY_BYTES_LIMIT:
        raise ConfigurationError(
            f"a topology on n={n} nodes with ~{edges:,.0f} expected edges "
            f"estimates to {est:,.0f} bytes of arrays (limit "
            f"{TOPOLOGY_BYTES_LIMIT:,}). Lower n or the degree, or override "
            f"with allow_large=True (or {ALLOW_LARGE_ENV}=1)."
        )
