"""One benchmark process: either the set-up or one timed pass of a workload.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py pass --workload W --seed N --dir D [--trace SPANS.tsv]

Prints one JSON object on stdout.  run.py starts these; each is a fresh,
single-threaded interpreter, so the library's caches start cold.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time counts the planeforge import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import workloads  # noqa: E402  (imports planeforge)


def digest(workdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode())
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def do_setup(args) -> dict:
    setup, _, _ = workloads.WORKLOADS[args.workload]
    setup(args.seed, args.dir)
    return {"setup_s": perf_counter() - T0, "digest": digest(args.dir)}


def do_pass(args) -> dict:
    _, run, check = workloads.WORKLOADS[args.workload]
    with open(os.path.join(args.dir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    latencies: dict[int, float] = {}
    results: dict[int, object] = {}
    errors: dict[int, str] = {}

    def record(op_id, fn):
        if tracer is not None:
            tracer.op_id = op_id
        start = perf_counter()
        try:
            results[op_id] = fn()
        except Exception as exc:  # an unexpected exception fails the operation
            errors[op_id] = f"{type(exc).__name__}: {exc}"
        latencies[op_id] = perf_counter() - start

    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        run(inputs, args.dir, record)
    finally:
        run_s = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok = {i: r for i, r in results.items() if i not in errors}
    try:
        failures = check(inputs, args.dir, ok, args.seed)
    except Exception as exc:  # a check that cannot read the output fails every op
        failures = {i: f"check raised {type(exc).__name__}: {exc}" for i in latencies}
    failures.update(errors)

    out = {
        "run_s": run_s,
        "op_ms": [latencies[i] * 1000 for i in sorted(latencies)],
        "attempted": len(latencies),
        "failures": {str(i): msg for i, msg in sorted(failures.items())},
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["inclusive_s"] = tracer.inclusive()
        out["self_s_total"] = tracer.total_self_s()
        out["spans"] = tracer.write_spans(args.trace)
        out["missing"] = tracer.missing
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", help="write spans to this TSV file")
    args = parser.parse_args()
    out = do_setup(args) if args.phase == "setup" else do_pass(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
