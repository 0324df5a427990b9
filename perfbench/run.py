"""planeforge benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload build --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # build and query

Run from the repository root.  A run sets up the workload's inputs five
times in fresh processes (``setup_s`` is their median), then runs timed
passes, each in a fresh single-threaded process, until ``--seconds`` of
passes have elapsed (at least one).  Every pass checks its outputs after the
timed part.  With ``--trace 1`` the passes alternate untraced and traced, and
the per-layer metrics come from the traced ones (see tracing.py).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end ones for ``--trace 0``, per-layer ones
for ``--trace 1``).  Human-readable lines before it repeat every metric with
its unit and sample count; the full record, with raw samples and the
environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("build", "query")  # what --workload all runs, and BENCHMARK.json lists
UNGATED = ("audit", "search")  # runnable by name; too unsteady between seeds to gate on
SETUP_REPS = 5
RUN_LIMIT_S = 165  # one invocation must end within 180 s

sys.path.insert(0, HERE)
from tracing import UNATTRIBUTED_TOLERANCE, metric_names  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PLANEFORGE_BUDGET", None)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args[0]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}: {' | '.join(tail)}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerError(f"worker {args[0]} printed no result") from None


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=RESULTS)
    common = ["--workload", workload, "--seed", str(seed), "--dir", workdir]
    try:
        setups = [_worker(["setup", *common], deadline) for _ in range(SETUP_REPS)]
        reps = []
        walls: list[float] = []
        measure_start = time.monotonic()
        while True:
            traced = trace and len(reps) % 2 == 1
            extra = []
            if traced:
                spans = os.path.join(RESULTS, f"spans-{workload}-seed{seed}-rep{len(reps)}.tsv")
                extra = ["--trace", spans]
            t = time.monotonic()
            try:
                rep = _worker(["pass", *common, *extra], deadline)
            except WorkerError as exc:
                rep = {"error": str(exc)}
            rep["traced"] = traced
            reps.append(rep)
            walls.append(time.monotonic() - t)
            if "error" in rep:
                break
            if trace and len(reps) < 2:
                continue
            now = time.monotonic()
            next_end = now + statistics.median(walls)
            if next_end - measure_start > seconds or next_end > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "env": _environment(seed),
        "setups": setups,
        "reps": reps,
        "wall_s": time.monotonic() - started,
    }


def summarize(raw: dict) -> dict:
    """Medians, quantiles, counts and the JSON result of one workload run."""
    setups, reps = raw["setups"], raw["reps"]
    plain = [r for r in reps if not r["traced"] and "error" not in r]
    traced = [r for r in reps if r["traced"] and "error" not in r]
    attempted = sum(r.get("attempted", 1) for r in reps)
    failures = [msg for r in reps for msg in r.get("failures", {}).values()]
    failures += [r["error"] for r in reps if "error" in r]
    digests = {s["digest"] for s in setups}
    if len(digests) != 1:
        failures.append("set-up is not deterministic: inputs differ between repeats")
    samples = {
        "setup_s": [s["setup_s"] for s in setups],
        "run_s": [r["run_s"] for r in plain],
        "op_ms": [ms for r in plain for ms in r["op_ms"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    e2e = {}
    if plain:
        e2e = {
            "setup_s": statistics.median(samples["setup_s"]),
            "run_s": statistics.median(samples["run_s"]),
            "op_p50_ms": statistics.median(samples["op_ms"]),
            "op_p90_ms": _p90(samples["op_ms"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
    layers = {}
    inclusive = {}  # share of traced run_s spent inside each function
    notes = []
    if traced and plain:
        for name, _, _ in metric_names():
            if name.startswith("trace."):
                continue
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        traced_run = statistics.median(r["run_s"] for r in traced)
        layers["trace.overhead_ratio"] = traced_run / e2e["run_s"]
        layers["trace.unattributed_ratio"] = statistics.median(
            1 - r["self_s_total"] / r["run_s"] for r in traced
        )
        samples["traced_run_s"] = [r["run_s"] for r in traced]
        for name in traced[0]["inclusive_s"]:
            share = statistics.median(r["inclusive_s"][name] / r["run_s"] for r in traced)
            if share:
                inclusive[name] = share
        if abs(layers["trace.unattributed_ratio"]) > UNATTRIBUTED_TOLERANCE:
            notes.append(
                f"attribution check FAILED: layer self times leave "
                f"{layers['trace.unattributed_ratio']:.1%} of traced run_s unattributed "
                f"(tolerance {UNATTRIBUTED_TOLERANCE:.0%})"
            )
        else:
            notes.append(
                f"attribution check passed: layer self times cover traced run_s "
                f"to within {abs(layers['trace.unattributed_ratio']):.2%} "
                f"(tolerance {UNATTRIBUTED_TOLERANCE:.0%})"
            )
        missing = sorted({m for r in traced for m in r.get("missing", [])})
        if missing:
            notes.append("not found in the library, reported as 0: " + ", ".join(missing))
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in metric_names())
    chosen = layers if raw["trace"] else e2e
    result = {
        "correct": bool(plain) and (not raw["trace"] or bool(traced)) and not failures,
        "attempted": max(attempted, 1),
        "failed": min(len(failures), max(attempted, 1)),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }
    return {
        "result": result,
        "end_to_end": e2e,
        "layers": layers,
        "inclusive_share": inclusive,
        "samples": samples,
        "failures": failures,
        "notes": notes,
    }


def report(raw: dict, summary: dict) -> None:
    env = raw["env"]
    samples = summary["samples"]
    result = summary["result"]
    print(
        f"planeforge benchmark: workload={raw['workload']} seed={env['seed']} "
        f"trace={int(raw['trace'])} seconds={raw['seconds']} wall={raw['wall_s']:.1f}s"
    )
    print(
        f"env: python {env['python']}, nproc {env['nproc']} "
        f"(affinity {env['affinity']}), commit {env['commit']}"
    )
    counts = {
        "setup_s": len(samples["setup_s"]),
        "run_s": len(samples["run_s"]),
        "op_p50_ms": len(samples["op_ms"]),
        "op_p90_ms": len(samples["op_ms"]),
        "peak_rss_mb": len(samples["peak_rss_mb"]),
    }
    for name, unit in END_TO_END:
        if name in summary["end_to_end"]:
            print(f"  {name:<12} {summary['end_to_end'][name]:>12.4f} {unit:<3} n={counts[name]}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<12} {rate:>12.4f}     n={result['attempted']} ({result['failed']} failed)")
    for name, value in summary["layers"].items():
        print(f"  {name:<52} {value:>14.6f}")
    for name, share in summary["inclusive_share"].items():
        print(f"  share of traced run_s inside {name} (children included): {share:.1%}")
    for note in summary["notes"]:
        print(f"note: {note}")
    for msg in summary["failures"][:10]:
        print(f"FAILED: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, *UNGATED, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "planeforge", "__init__.py"), os.path.join(ROOT, "tests", "oracles.py")]
    absent = [p for p in needed if not os.path.isfile(p)]
    if absent:
        print(f"run.py: not a planeforge checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        raw = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summary = summarize(raw)
        report(raw, summary)
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({**raw, **summary}, fh, indent=1, sort_keys=True)
        result = summary["result"]
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in result["metrics"].items():
            combined["metrics"][prefix + key] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
