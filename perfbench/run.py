"""End-to-end benchmark of the repro package: one command, three workloads.

Run from the root of a checkout (``src/repro`` must be there)::

    python3 perfbench/run.py --workload scale_gnp --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Each iteration of a workload runs in a fresh process (``worker.py``).
Untraced iterations run back to back while they fit in ``--seconds``
(at least one), and give ``wall_s`` (launch to written or returned
result), ``setup_s`` (launch to inputs ready) and ``peak_rss_mb``.
Extra set-up-only processes add ``setup_s`` samples where set-up is
cheap.  With ``--trace 1`` one more, traced iteration gives the
per-layer metrics and ``trace.overhead_ratio``.  Every iteration checks
its outputs; a failed check makes the command exit with code 1.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the medians of the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("scale_gnp", "mc_sweep", "claims_quick")
#: (name, unit, better, bound): the end-to-end metrics.
END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]
#: Extra set-up-only processes per run; scale_gnp's set-up generates a
#: million-node topology, so it gets only the samples its iterations give.
SETUP_REPEATS = {"scale_gnp": 0, "mc_sweep": 4, "claims_quick": 4}
#: Each workload's iterations end within this, so that a one-workload
#: invocation ends within three minutes.
DEADLINE_S = 170.0


class Runner:
    """Launches worker processes inside one checkout."""

    def __init__(self, root: pathlib.Path, toy: bool):
        self.root = root
        self.toy = toy
        self.work = root / ".perfbench_work"
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            TMPDIR=str(self.work / "tmp"),
        )
        self.deadline = 0.0
        self.launches = 0

    def warm_up(self) -> None:
        """Compile and page in the package once, outside every timer."""
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments, repro.sweep, repro.sim.macro"],
            cwd=self.root, env=self.env, stdout=sys.stderr, check=True,
        )

    def launch(self, workload: str, seed: int, mode: str, oracle: bool = False) -> dict | None:
        """One worker process; its report with ``setup_s``/``wall_s``
        added, or ``None`` if it crashed or ran out of time."""
        self.launches += 1
        report_path = self.work / f"report-{os.getpid()}-{self.launches}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--report", str(report_path),
        ]
        cmd += ["--oracle"] * oracle + ["--toy"] * self.toy
        launched = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=sys.stderr, start_new_session=True
        )
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0 or not report_path.exists():
            print(f"{workload} {mode} iteration failed (exit {code})", file=sys.stderr)
            return None
        report = json.loads(report_path.read_text())
        report_path.unlink()
        report["setup_s"] = report["t_ready"] - launched
        if "t_done" in report:
            report["wall_s"] = report["t_done"] - launched
        return report


def run_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All iterations of one workload; returns samples, counts and layers."""
    untraced: list[dict] = []
    setup_samples: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    runner.deadline = time.monotonic() + DEADLINE_S

    def account(report: dict | None) -> bool:
        nonlocal attempted, failed
        if report is None:
            attempted, failed = attempted + 1, failed + 1
            problems.append("iteration crashed or timed out")
            return False
        attempted += report.get("attempted", 0)
        failed += report.get("failed", 0)
        problems.extend(report.get("problems", []))
        return True

    def setup_only(count: int) -> None:
        for _ in range(count):
            report = runner.launch(workload, seed, "setup")
            if not account(report):
                return
            setup_samples.append(report["setup_s"])

    # Half the set-up-only samples go before the iterations and half
    # after, so they do not all share one phase of the host's speed.
    setup_only(SETUP_REPEATS[workload] // 2)
    measured = 0.0
    while True:
        # The oracle comparison runs once per invocation, after the
        # first iteration's timed part.
        report = runner.launch(workload, seed, "run", oracle=not untraced)
        if not account(report):
            break
        untraced.append(report)
        setup_samples.append(report["setup_s"])
        measured += report["wall_s"]
        longest = max(r["wall_s"] for r in untraced)
        if measured + longest > seconds:
            break
    setup_only(SETUP_REPEATS[workload] - SETUP_REPEATS[workload] // 2)
    layers = None
    if trace and untraced:
        report = runner.launch(workload, seed, "traced")
        if account(report):
            layers = dict(report["layers"])
            layers["trace.overhead_ratio"] = report["wall_s"] / statistics.median(
                r["wall_s"] for r in untraced
            )
    samples = {
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": setup_samples,
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    return {
        "samples": samples, "layers": layers, "attempted": max(attempted, 1),
        "failed": failed, "problems": problems,
    }


def render(workload: str, outcome: dict) -> str:
    """Human-readable table of one workload's metrics."""
    lines = [f"== {workload} =="]
    units = {name: unit for name, unit, _, _ in END_TO_END}
    for name, values in outcome["samples"].items():
        if values:
            lines.append(
                f"  {name:<34} {statistics.median(values):>14.6g} {units[name]:<6}"
                f" median of n={len(values)} (min {min(values):.6g}, max {max(values):.6g})"
            )
    frac = outcome["failed"] / outcome["attempted"]
    lines.append(
        f"  {'failed_frac':<34} {frac:>14.6g} {'ratio':<6}"
        f" {outcome['failed']} of {outcome['attempted']} operations failed"
    )
    if outcome["layers"] is not None:
        lines.append("  per layer (one traced iteration, n=1):")
        for name, unit, _, moves, _ in LAYER_METRICS:
            lines.append(f"  {name:<34} {outcome['layers'][name]:>14.6g} {unit:<6} -> {moves}")
    lines.extend(f"  FAILED CHECK: {problem}" for problem in outcome["problems"])
    return "\n".join(lines)


def metrics_json(outcome: dict, trace: bool) -> dict:
    if trace:
        if outcome["layers"] is None:
            return {}
        return {
            name: {"value": outcome["layers"][name], "unit": unit}
            for name, unit, *_ in LAYER_METRICS
        }
    return {
        name: {"value": statistics.median(outcome["samples"][name]), "unit": unit}
        for name, unit, _, _ in END_TO_END
        if outcome["samples"][name]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced iterations run while they fit in this budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized inputs (smoke tests); pinned outputs unchecked")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro package under {root}; run from a checkout root", file=sys.stderr)
        return 2
    runner = Runner(root, args.toy)
    runner.warm_up()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for workload in workloads:
        outcomes[workload] = run_workload(runner, workload, args.seed, args.seconds, bool(args.trace))
        print(render(workload, outcomes[workload]), flush=True)
    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    correct = failed == 0 and all(o["samples"]["wall_s"] for o in outcomes.values())
    if args.workload == "all":
        metrics = {
            f"{workload}.{name}": value
            for workload, outcome in outcomes.items()
            for name, value in metrics_json(outcome, bool(args.trace)).items()
        }
    else:
        metrics = metrics_json(outcomes[args.workload], bool(args.trace))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
