"""Telemetry (span) overhead benchmark (emits ``BENCH_telemetry_overhead.json``).

The same contract the metrics layer honours, applied to spans: with
``spans=None`` (the default) no span code runs, and with a
:class:`~repro.obs.spans.SpanRecorder` attached the results must stay
bit-identical — spans observe, never perturb.  Span recording rides on
the ``Timings`` accumulator (stage spans are synthesized from deltas,
not re-instrumented), so its cost is essentially the timings cost plus a
handful of dict emissions per trial batch; the acceptance bar is a
measured enabled/disabled ratio ≤ 1.10x on the full batched workload.

The workload comes from the shared benchmark registry: the
``telemetry_overhead`` entry that ``repro bench`` runs measures exactly
what this test measures.  The two sides are timed alternately, repeat by
repeat, so drift of the host lands on both; each side's best repeat
enters the ratio.

Wall-clock assertions against the committed baseline only run when
``REPRO_BENCH_STRICT=1`` (dedicated benchmark hardware); shared CI
runners are too noisy, so there the baseline is refreshed and uploaded
as an artifact instead.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.analysis import render_table
from repro.obs.bench import environment_fingerprint
from repro.obs.suite import batched_workload, telemetry_overhead_workload

# Mirrors BENCH_obs.json vs BENCH_obs_overhead.json: this file is the
# pytest record; the registry's pinned baseline (written by ``repro bench
# --update-baseline``) is BENCH_telemetry_overhead.json.
BENCH_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_telemetry.json"

REPEATS = 3  # best-of to shave scheduler noise

#: Acceptance bar for span recording on the batched workload.
MAX_OVERHEAD = 1.10


def test_telemetry_overhead_and_bench_baseline(table_reporter):
    _, _, trials = batched_workload(quick=False)
    plain, telemetered = telemetry_overhead_workload(quick=False)

    # Span recording must never change what the engine computes.  These
    # two calls double as the warmup for the timed runs below.
    plain_results = plain()
    telemetered_results = telemetered()
    assert [r.time for r in telemetered_results] == [r.time for r in plain_results]
    assert [r.wake_times for r in telemetered_results] == [
        r.wake_times for r in plain_results
    ]

    env = environment_fingerprint()
    off_times, on_times = [], []
    for _ in range(REPEATS):
        for thunk, times in ((plain, off_times), (telemetered, on_times)):
            start = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - start)
    off_s, on_s = min(off_times), min(on_times)

    slots = sum(r.time for r in plain_results)
    overhead = on_s / off_s
    record = {
        "bench": "telemetry-overhead",
        "git_sha": env["git_sha"],
        "network": "km_hard_layered(128, 32, seed=17)",
        "algorithm": "kp-known-d(stage_constant=32)",
        "trials": trials,
        "trial_slots": slots,
        "spans_off_s": round(off_s, 4),
        "spans_on_s": round(on_s, 4),
        "overhead_ratio": round(overhead, 3),
        "slots_per_s_off": round(slots / off_s),
        "slots_per_s_on": round(slots / on_s),
    }

    baseline = None
    if BENCH_PATH.exists():
        baseline = json.loads(BENCH_PATH.read_text())

    table_reporter.record(
        "telemetry-overhead",
        render_table(
            ["path", "wall (s)", "trial-slots/s"],
            [
                ["spans off", f"{off_s:.3f}", f"{slots / off_s:.0f}"],
                ["spans on", f"{on_s:.3f}", f"{slots / on_s:.0f}"],
                ["overhead", f"{overhead:.2f}x", ""],
            ],
            title=f"BatchedFastEngine, {trials} trials ({slots} trial-slots)",
        ),
    )

    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert overhead < MAX_OVERHEAD, (
        f"span-recording overhead {overhead:.2f}x exceeds the "
        f"{MAX_OVERHEAD:.2f}x acceptance bar"
    )

    if baseline is not None and os.environ.get("REPRO_BENCH_STRICT") == "1":
        regression = off_s / baseline["spans_off_s"]
        assert regression < 1.03, (
            f"plain path regressed {regression:.3f}x vs baseline "
            f"{baseline['git_sha']}"
        )
