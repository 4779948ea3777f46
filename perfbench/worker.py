"""One benchmark iteration of one workload, in a fresh process.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload scale_gnp --seed 0 \\
        --mode run --report out.json [--oracle] [--toy]

Modes: ``setup`` builds the inputs and stops; ``run`` also executes the
workload and checks its outputs; ``traced`` does the same with spans
around each layer's entry points (see ``tracing.py``).  The report
records ``time.monotonic()`` stamps (``t_ready`` when the inputs are
ready, ``t_done`` when the result is written or returned), the peak
resident memory of this process and its children, the operations
attempted and failed, and, when traced, the per-layer metrics.  The
launching process subtracts its own launch stamp from the two times.

Output checks run after ``t_done``.  At the default seed the outputs
must equal the values pinned in ``pinned.json``; at every seed they must
meet the invariants of a correct run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import resource
import shutil
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_SEED = 0
SWEEP_WORKERS = 2
#: Observability keys a sweep payload carries when instrumented; the
#: cache strips them, so checks compare payloads without them.
OBS_KEYS = ("timings", "metrics")
CLAIMS_TOY = ("e7", "e10")


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it has waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def load_pins() -> dict:
    return json.loads((HERE / "pinned.json").read_text())


def pins_apply(args) -> bool:
    """Seed-dependent outputs are pinned at the default seed, full size."""
    return args.seed == DEFAULT_SEED and not args.toy


def canonical(payload: dict) -> str:
    stripped = {k: v for k, v in payload.items() if k not in OBS_KEYS}
    return json.dumps(stripped, sort_keys=True, separators=(",", ":"))


def digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# Output checks: pure functions over outputs, so tests can feed them
# corrupted data.  Each returns (attempted, failed, problems).


def check_broadcast(document: dict, depths, pinned: dict | None) -> tuple[int, int, list[str]]:
    """One run: the saved result document against its invariants and pins."""
    import numpy as np

    n = len(depths)
    problems = []
    wake_map = document.get("wake_times", {})
    if not document.get("completed") or document.get("informed") != n or len(wake_map) != n:
        problems.append(
            f"incomplete run: completed={document.get('completed')} "
            f"informed={document.get('informed')}/{n}"
        )
    else:
        wake = np.array([wake_map[str(v)] for v in range(n)], dtype=np.int64)
        early = int((wake < np.asarray(depths) - 1).sum())
        if early:
            problems.append(f"{early} nodes woke before their BFS depth - 1")
        if pinned is not None:
            observed = {"slots": document["time"], "wake_sha256": digest(wake.tobytes())}
            if observed != pinned:
                problems.append(f"pinned output mismatch: {observed} != {pinned}")
    return 1, int(bool(problems)), problems


def check_sweep(cold: list, warm: list, pinned: dict | None) -> tuple[int, int, list[str]]:
    """Every point of the cold and warm passes; ``cold``/``warm`` are
    ``(label, payload, cached, trials)`` tuples in grid order."""
    attempted = failed = 0
    problems = []
    warm_by_label = {label: (payload, cached) for label, payload, cached, _ in warm}
    for label, payload, cached, trials in cold:
        attempted += trials
        issues = []
        if cached:
            issues.append("cold pass served from cache")
        if payload.get("runs") != trials or payload.get("completed") != trials:
            issues.append(f"{payload.get('completed')}/{trials} trials completed")
        if payload.get("min_time", -1) < payload.get("radius", 0):
            issues.append("a trial finished before the radius")
        warm_payload, warm_cached = warm_by_label.get(label, (None, False))
        if not warm_cached:
            issues.append("warm pass executed the point")
        if warm_payload is None or canonical(warm_payload) != canonical(payload):
            issues.append("warm payload differs from the cold payload")
        if pinned is not None and pinned.get(label) != digest(canonical(payload)):
            issues.append(f"payload digest {digest(canonical(payload))} != pinned {pinned.get(label)}")
        if issues:
            failed += trials
            problems.append(f"{label}: " + "; ".join(issues))
    return attempted, failed, problems


def check_verdicts(verdicts: dict[str, list[bool]], pinned: dict[str, list[bool]]) -> tuple[int, int, list[str]]:
    """Claim verdicts against the pinned list (every pinned claim PASS)."""
    attempted = failed = 0
    problems = []
    for name, expected in pinned.items():
        observed = verdicts.get(name, [])
        attempted += len(expected)
        bad = sum(
            1 for i, want in enumerate(expected)
            if i >= len(observed) or observed[i] != want or not observed[i]
        )
        if bad or len(observed) != len(expected):
            failed += max(bad, 1)
            problems.append(f"{name}: verdicts {observed} != pinned {expected}")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# Workloads: setup(seed, toy) -> inputs; execute(inputs, ...) -> report.


def setup_scale_gnp(seed: int, toy: bool):
    from repro.core import KnownRadiusKP
    from repro.topology import csr

    n = 2_000 if toy else 1_000_000
    network = csr.gnp_random_csr(n, 12 / n, seed=seed)
    return network, KnownRadiusKP(network.r, max(1, network.radius))


def execute_scale_gnp(inputs, args, workdir, tracer):
    from repro.sim import macro, serialization

    network, algorithm = inputs
    path = workdir / "result.json"
    result = macro.run_broadcast_macro(network, algorithm, seed=args.seed)
    serialization.save_result(result, path)
    report = {"t_done": time.monotonic(), "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.active = False
    document = json.loads(path.read_text())
    path.unlink()
    pinned = load_pins()["scale_gnp"] if pins_apply(args) else None
    attempted, failed, problems = check_broadcast(document, network.depths_array(), pinned)
    if tracer is not None and not any(s["name"] == "sim.macro.engine" for s in tracer.spans):
        failed, problems = 1, problems + ["traced run never entered MacroStepEngine.run"]
    if args.oracle:
        # The oracle engine, outside the timed part: FastEngine at the
        # same seed must give the same wake slot to every node.
        from repro.core import KnownRadiusKP
        from repro.sim.fast import run_broadcast_fast

        reference = run_broadcast_fast(
            network, KnownRadiusKP(network.r, max(1, network.radius)), seed=args.seed
        )
        saved = {int(k): v for k, v in document["wake_times"].items()}
        if reference.wake_times != saved or reference.time != document["time"]:
            failed, problems = 1, problems + ["wake times differ from run_broadcast_fast"]
    report.update(attempted=attempted, failed=failed, problems=problems)
    return report


def sweep_specs(seed: int, toy: bool):
    """The seed picks the trials; the km-layered graphs stay those of seed
    0, because with one other graph the cold pass ran about 20% longer,
    and the run time would follow the seed rather than the code."""
    from repro.sweep import SweepSpec

    grid = {"n": (64, 128), "depth": (4, 8)} if toy else {"n": (512, 2048), "depth": (16, 64)}
    return [
        SweepSpec(
            name=f"perfbench-{algorithm}",
            topology="km-layered",
            algorithm=algorithm,
            topology_grid={**grid, "seed": 0},
            trials=5 if toy else 100,
            # Trial i runs seed base_seed + i; keep seeds' trials disjoint.
            base_seed=1000 * seed,
        )
        for algorithm in ("kp-known-d", "bgi")
    ]


def setup_mc_sweep(seed: int, toy: bool):
    from repro.sweep import ResultCache

    cache_dir = pathlib.Path(os.environ.get("TMPDIR", ".")) / f"sweep-cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    return sweep_specs(seed, toy), ResultCache(cache_dir)


def execute_mc_sweep(inputs, args, workdir, tracer):
    from repro.sweep import run_sweep

    specs, cache = inputs
    traced = tracer is not None
    start = time.perf_counter()
    cold = [run_sweep(spec, workers=SWEEP_WORKERS, cache=cache, instrument=traced) for spec in specs]
    report = {"t_done": time.monotonic(), "peak_rss_mb": peak_rss_mb()}
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = [run_sweep(spec, workers=SWEEP_WORKERS, cache=cache) for spec in specs]
    warm_s = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    shutil.rmtree(cache.root, ignore_errors=True)

    def rows(outcomes):
        return [
            (r.point.label(), r.payload, r.cached, r.point.trials)
            for outcome in outcomes for r in outcome.results
        ]

    pinned = load_pins()["mc_sweep"] if pins_apply(args) else None
    attempted, failed, problems = check_sweep(rows(cold), rows(warm), pinned)
    report.update(attempted=attempted, failed=failed, problems=problems)
    if traced:
        report["extras"] = sweep_extras(cold, warm, cold_s, warm_s)
    return report


def sweep_extras(cold, warm, cold_s: float, warm_s: float) -> dict[str, float]:
    """Per-layer metrics from the cold pass's ``instrument=True`` stage
    timings and from the warm pass."""
    results = [r for outcome in cold for r in outcome.results]

    def stage(r, name: str, key: str = "seconds") -> float:
        return r.payload.get("timings", {}).get(name, {}).get(key, 0)

    def total(name: str, key: str = "seconds") -> float:
        return sum(stage(r, name, key) for r in results)

    warm_points = [r for outcome in warm for r in outcome.results]
    execute_s = total("pool.execute")
    steps = total("engine.step", "count")
    return {
        "sim.fast.coins_s": total("engine.coins"),
        "sim.fast.channel_s": total("engine.channel"),
        "sim.fast.step_s": total("engine.step"),
        "sim.fast.trial_slots": sum(stage(r, "engine.step", "count") * r.point.trials for r in results),
        "sim.fast.us_per_slot": total("engine.step") / steps * 1e6 if steps else 0.0,
        "sweep.runner.queue_wait_s": total("pool.queue_wait"),
        "sweep.runner.execute_s": execute_s,
        "sweep.runner.point_max_s": max(stage(r, "pool.execute") for r in results),
        "sweep.runner.worker_busy_frac": execute_s / (SWEEP_WORKERS * cold_s),
        "sweep.cache.hit_ratio": sum(r.cached for r in warm_points) / len(warm_points),
        "sweep.cache.warm_s": warm_s,
        "topology.layered.build_s": total("point.build"),
    }


def setup_claims_quick(seed: int, toy: bool):
    from repro.experiments import get_experiment

    names = CLAIMS_TOY if toy else tuple(f"e{i}" for i in range(1, 13))
    return [(name, get_experiment(name)) for name in names]


def execute_claims_quick(inputs, args, workdir, tracer):
    verdicts = {}
    for name, experiment in inputs:
        with tracer.span(f"experiments.{name}") if tracer else contextlib.nullcontext():
            verdicts[name] = [claim.holds for claim in experiment(quick=True).claims]
    report = {"t_done": time.monotonic(), "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.active = False
    # The experiments pin their own seeds, so every seed checks the pins.
    pinned = {name: load_pins()["claims_quick"][name] for name, _ in inputs}
    attempted, failed, problems = check_verdicts(verdicts, pinned)
    report.update(attempted=attempted, failed=failed, problems=problems)
    return report


WORKLOADS = {
    "scale_gnp": (setup_scale_gnp, execute_scale_gnp),
    "mc_sweep": (setup_mc_sweep, execute_mc_sweep),
    "claims_quick": (setup_claims_quick, execute_claims_quick),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), default="run")
    parser.add_argument("--report", required=True)
    parser.add_argument("--oracle", action="store_true",
                        help="also compare against the oracle engine (scale_gnp)")
    parser.add_argument("--toy", action="store_true", help="toy-sized inputs")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.install()
    setup, execute = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.toy)
    report = {"t_ready": time.monotonic()}
    if args.mode != "setup":
        workdir = pathlib.Path(args.report).parent
        report.update(execute(inputs, args, workdir, tracer))
        if tracer is not None:
            import tracing

            report["layers"] = tracing.layer_metrics(
                tracing.summarize(tracer.spans), report.pop("extras", {})
            )
    pathlib.Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
