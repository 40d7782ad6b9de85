"""Benchmark of the qkdsync simulator, one workload and one seed per call.

    python3 perfbench/run.py --workload {blocking,arrival-cdr}
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
`src/`.  Every process runs alone (closed loop, one at a time) with
BLAS/OpenMP pinned to one thread.

--trace 0 splits S seconds between PROCESSES fresh processes run one
after another.  Each times its set-up (import of `qkdsync.cli` plus
config resolution) and its first run, records its peak RSS after that
run, and repeats warm runs for the rest of its share; set-up, first run
and peak RSS are medians over the processes, run_s over all warm runs.
Spreading every metric over the whole S seconds keeps a slow spell of a
shared host from landing on one metric only.  --trace 1 uses one
process whose warm runs alternate between untraced runs and runs in
which every layer is traced (see spans.py); it reports per-layer
medians and the tracing overhead.

Every run's output is checked (workloads.py); runs that raise or fail a
check count as failed.  SHA-256 digests of the CSVs a scenario writes
are compared across the runs of one call (a difference fails the run)
and against digests.json, recorded from the package as it was when the
benchmark was defined (a difference is reported, not failed).  Human-readable lines come first; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the metrics BENCHMARK.json lists for the mode).  A record
with the environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROCESSES = 9
DEADLINE_S = 170.0  # the whole call, so a stuck worker cannot hold the caller
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _worker(workload, seed, seconds, trace, small, started) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:.3f}",
           "--out", str(OUT / f"{workload}-seed{seed}")]
    cmd += ["--trace"] * trace + ["--small"] * small
    left = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(left, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} exceeded the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(record["env"]["package"]) != ROOT / "src" / "qkdsync":
        raise BenchError(f"measured the package at {record['env']['package']}, "
                         f"not this checkout's")
    return record


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def count_failures(runs: list[dict]) -> tuple[int, list[str]]:
    """Failed runs: a raise, a failed check, or CSVs unlike the first run's."""
    failed, notes = 0, []
    first = runs[0]["digests"] if runs else {}
    for i, run in enumerate(runs):
        problems = list(run["failures"])
        if run["digests"] != first and not any(p.startswith("raised") for p in problems):
            problems.append("CSV bytes differ from the first run of this call")
        if problems:
            failed += 1
            notes.extend(f"run {i} ({run['kind']}): {p}" for p in problems)
    return failed, notes


def _tail(samples: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s"
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
        return f"{text}, p{p} {value:.4f} s (n={n})"
    return (f"{text}, max {max(samples):.4f} s (n={n}; under 20 samples no "
            f"percentile above the median has ten beyond it)")


def _digest_lines(workload, seed, digests, small) -> list[str]:
    if not digests:
        return []
    reference = None if small else (
        json.loads((HERE / "digests.json").read_text()).get(workload, {}).get(str(seed)))
    if reference is None:
        status = "no reference for this seed"
    elif reference == digests:
        status = "match the digests recorded in digests.json"
    else:
        changed = sorted(k for k in set(reference) | set(digests)
                         if reference.get(k) != digests.get(k))
        status = f"DIFFER from the digests recorded in digests.json in {', '.join(changed)}"
    return [f"  csv digests   {status}"] + [
        f"    {name} {sha}" for name, sha in sorted(digests.items())]


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              small: bool = False) -> tuple[list[str], dict, dict]:
    """(human-readable lines, JSON result, record) for one call."""
    if not (ROOT / "src" / "qkdsync" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'qkdsync'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    lines = []
    records = []
    processes = 1 if trace else PROCESSES
    for i in range(processes):
        share = (seconds - (time.monotonic() - started)) / (processes - i)
        records.append(_worker(workload, seed, share, trace, small, started))
    runs = [run for r in records for run in r["runs"]]
    failed, notes = count_failures(runs)
    env = records[-1]["env"]
    env.update(git=_git_sha(), nproc=os.cpu_count(),
               cpus_usable=len(os.sched_getaffinity(0)))
    lines.append(f"perfbench {workload} seed {seed} trace {int(trace)}: git {env['git']}, "
                 f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
                 f"nproc {env['nproc']}")

    warm = [r["seconds"] for r in runs if r["kind"] == "warm"]
    values: dict[str, float] = {}
    if trace:
        traced = [r["seconds"] for r in runs if r["kind"] == "traced"]
        values.update(records[0]["layers"])
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(warm)
        lines.append(f"  traced run    median {statistics.median(traced):.4f} s vs untraced "
                     f"{statistics.median(warm):.4f} s: overhead "
                     f"{values['trace.overhead_s']:+.4f} s")
        lines += _layer_lines(values, records[0].get("nesting", {}),
                              statistics.median(traced))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        events = max(r["events"] for r in runs)  # the same in every run that completes
        run_s = statistics.median(warm)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "first_run_s": statistics.median(r["runs"][0]["seconds"] for r in records),
            "run_s": run_s,
            "events_per_s": events / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        }
        lines += [
            f"  setup_s       {values['setup_s']:.4f} s (median of {len(records)} processes)",
            f"  first_run_s   {values['first_run_s']:.4f} s (median of {len(records)} processes)",
            f"  run_s         {_tail(warm)}",
            f"  events_per_s  {values['events_per_s']:.1f} 1/s ({events} per run)",
            f"  peak_rss_mb   {values['peak_rss_mb']:.1f} MB (median of {len(records)} processes)",
        ]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    lines.append(f"  failure_rate  {failed / len(runs):.4f} ratio ({failed} of {len(runs)} runs)")
    lines += [f"    {n}" for n in notes]
    lines += _digest_lines(workload, seed, runs[0]["digests"], small)

    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "small": small, "env": env, "result": result, "values": values,
              "run_seconds": [[r["kind"], r["seconds"]] for r in runs],
              "digests": runs[0]["digests"], "notes": notes,
              "nesting": records[0].get("nesting", {})}
    return lines, result, record


def _layer_lines(values: dict, nesting: dict, run_s: float) -> list[str]:
    """Per-layer table (layers that were called) and self-time share by module."""
    layers = sorted({k.rsplit(".", 1)[0] for k in values if k.endswith(".calls")
                     and values[k] > 0}, key=lambda n: -values[f"{n}.self_s"])
    lines = [f"  {'layer':44s} {'calls':>6s} {'items':>10s} {'self_s':>8s} {'total_s':>8s}"]
    by_module: dict[str, float] = {}
    for name in layers:
        lines.append(f"  {name:44s} {values[name + '.calls']:6.0f} "
                     f"{values[name + '.items']:10.0f} {values[name + '.self_s']:8.4f} "
                     f"{values[name + '.total_s']:8.4f}")
        if name != "config.resolve":
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + values[name + ".self_s"]
    shares = ", ".join(f"{m} {s / run_s:.0%}" for m, s in
                       sorted(by_module.items(), key=lambda kv: -kv[1]))
    lines.append(f"  self-time share of the traced run: {shares}")
    lines += [f"  calls {edge}: {n}" for edge, n in sorted(nesting.items())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result, record = benchmark(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
