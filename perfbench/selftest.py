"""Self-test of the benchmark harness at a reduced input size.

    python3 perfbench/selftest.py

Runs every workload at a few seconds of link in both modes and checks that each mode emits exactly the
metrics BENCHMARK.json lists, that no run fails, that the traced layers
are the ones each workload should reach, with the call nesting
refine_anchor > match_detections > rescale on blocking; that the span
checks catch a rescale call that loses detections; and that a failing
output check or a change in CSV bytes is counted as a failed run.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run

SEED = 99


def _layers_called(values: dict) -> set[str]:
    return {k.rsplit(".", 1)[0] for k, v in values.items() if k.endswith(".calls") and v > 0}


def check_workload(name: str, spec: dict) -> list[str]:
    problems = []
    for trace in (False, True):
        lines, result, record = run.benchmark(name, SEED, 1.0, trace, small=True)
        print("\n".join(lines))
        wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        if set(result["metrics"]) != wanted:
            problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(result['metrics']) ^ wanted)}")
        if result["failed"] or not result["correct"] or result["attempted"] < 2:
            problems.append(f"{name} trace={trace}: {result['failed']} of "
                            f"{result['attempted']} runs failed: {record['notes']}")
        if not trace:
            continue
        called = _layers_called(record["values"])
        modules = {layer.split(".")[0] for layer in called}
        if name == "blocking":
            edges = {e.split(" > ")[0]: set() for e in record["nesting"]}
            for e in record["nesting"]:
                parent, child = e.split(" > ")
                edges[parent].add(child)
            if edges.get("qkd_analysis.refine_anchor") != {"qkd_analysis.match_detections"}:
                problems.append(f"blocking: refine_anchor calls {edges.get('qkd_analysis.refine_anchor')}")
            if edges.get("qkd_analysis.match_detections") != {"sync_recovery.rescale"}:
                problems.append(f"blocking: match_detections calls "
                                f"{edges.get('qkd_analysis.match_detections')}")
        elif "qkd_analysis" in modules:
            problems.append(f"{name}: qkd_analysis was called")
        if name == "arrival-cdr" and "classical_link.cdr_track" not in called:
            problems.append("arrival-cdr: the CDR loop was not traced")
    return problems


def check_failure_counting() -> list[str]:
    """A check that cannot pass, and CSV bytes that change, fail their runs."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import spans
    import worker
    import workloads

    problems = []
    broken = workloads.small("arrival-cdr")
    broken = replace(broken, limits={**broken.limits, "offset_error": 0.0})
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        record = worker.measure(lambda: broken, SEED, 0.0, False, Path(tmp))
    failed, _notes = run.count_failures(record["runs"])
    if failed != len(record["runs"]):
        problems.append(f"impossible check failed {failed} of {len(record['runs'])} runs")

    runs = [{"kind": "warm", "failures": [], "digests": {"a.csv": d}} for d in "xxy"]
    if run.count_failures(runs)[0] != 1:
        problems.append("a run whose CSV bytes changed was not counted as failed")

    span = spans.Span("sync_recovery.rescale", None, 0.0, 1.0, counters={
        "items": 5, "offered": 7, "dropped_before": 1, "dropped_after": 0})
    if not spans.check([span]):
        problems.append("a rescale span that loses a detection passed the span check")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        problems += check_workload(w["name"], spec)
    problems += check_failure_counting()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
