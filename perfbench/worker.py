"""One benchmark process: set up, run a workload, print its samples as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --out DIR [--trace] [--small]

The process times its own set-up and first run, as a CLI invocation
pays them, then repeats warm runs until S seconds from its start have
passed.  With --trace the warm runs alternate between untraced runs and
runs with every layer traced.  `run.py` starts these one after another;
`src/` must be on PYTHONPATH.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_WARM = 1
MIN_WARM_TRACED = 4  # two traced and two untraced runs


def _timed_run(workload, cfg, out_dir: Path) -> dict:
    """One run: its time, events handled, failed checks and CSV digests."""
    for old in out_dir.glob("*.csv"):
        old.unlink()
    gc.collect()
    start = time.perf_counter()
    try:
        result = workload.run(cfg, str(out_dir))
    except Exception as exc:  # a raising run is a counted failure, not a crash
        return {"seconds": time.perf_counter() - start, "events": 0,
                "failures": [f"raised {type(exc).__name__}: {exc}"], "digests": {}}
    seconds = time.perf_counter() - start
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.glob("*.csv"))}
    return {"seconds": seconds, "events": int(workload.events(result)),
            "failures": workload.failures(cfg, result), "digests": digests}


def _layer_metrics(summaries: list[dict], layer_names) -> dict:
    """Median over traced runs of each layer's self/total time and counters."""
    out = {}
    for name in layer_names:
        rows = [s.get(name, {}) for s in summaries]
        for kind in ("self_s", "total_s", "calls", "items", "failed"):
            out[f"{name}.{kind}"] = statistics.median(r.get(kind, 0) for r in rows)
    match = [s.get("qkd_analysis.match_detections", {}) for s in summaries]
    offered = sum(r.get("items", 0) for r in match)
    out["qkd_analysis.match_detections.matched_frac"] = (
        sum(r.get("matched", 0) for r in match) / offered if offered else 0.0)
    return out


def measure(get_workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up in this (fresh) process, run once, then repeat until `seconds`.

    Set-up time is the import of `qkdsync.cli` plus config resolution;
    `get_workload` is called between the two and is not timed.
    """
    start = time.perf_counter()
    deadline = start + seconds
    importlib.import_module("qkdsync.cli")
    import_s = time.perf_counter() - start
    workload = get_workload()
    record = {"runs": [], "env": {}}

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        uninstall = tracer.install()
    start = time.perf_counter()
    cfg = workload.configure(seed)
    record["setup_s"] = import_s + time.perf_counter() - start
    if tracer is not None:
        uninstall()
        setup_layers = spans.summarize(tracer.spans)

    out_dir.mkdir(parents=True, exist_ok=True)
    record["runs"].append({"kind": "first", **_timed_run(workload, cfg, out_dir)})
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summaries = []
    min_warm = MIN_WARM_TRACED if trace else MIN_WARM
    while time.perf_counter() < deadline or len(record["runs"]) <= min_warm:
        traced = trace and len(record["runs"]) % 2 == 1
        if traced:
            tracer.reset()
            uninstall = tracer.install()
            try:
                run = _timed_run(workload, cfg, out_dir)
            finally:
                uninstall()
            run["failures"] += spans.check(tracer.spans)
            summaries.append(spans.summarize(tracer.spans))
            record["nesting"] = spans.nesting(tracer.spans)
        else:
            run = _timed_run(workload, cfg, out_dir)
        record["runs"].append({"kind": "traced" if traced else "warm", **run})

    if tracer is not None:
        names = list(spans.TRACED) + ["simulate.write"]
        layers = _layer_metrics(summaries, names)
        for kind, value in setup_layers.get("config.resolve", {}).items():
            layers[f"config.resolve.{kind}"] = value
        record["layers"] = layers

    versions = {m: getattr(sys.modules.get(m), "__version__", "not loaded")
                for m in ("numpy", "scipy")}
    record["env"] = {"python": platform.python_version(), **versions,
                     "package": str(Path(sys.modules["qkdsync"].__file__).parent)}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true",
                        help="reduced input size, for the harness self-test")
    args = parser.parse_args(argv)

    def workload():
        import workloads  # imports the package, so only after set-up has started
        return workloads.small(args.workload) if args.small else workloads.WORKLOADS[args.workload]

    record = measure(workload, args.seed, args.seconds, args.trace, Path(args.out))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
