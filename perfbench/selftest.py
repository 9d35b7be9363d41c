"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

For each workload, runs ``run.py --tiny`` with tracing off and on, and
checks that the result line has exactly the contract's keys, that every
metric named in ``BENCHMARK.json`` is emitted with its unit, that the
correctness checks pass, and that the traced run's layer spans are
non-empty.  Finally checks that the benchmark refuses to run, printing no
result, in a directory that holds only ``BENCHMARK.json`` and
``perfbench/``.  Exits non-zero on any failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dsp-guarded", "media-ladder", "paper-reduced")

#: Traced-run metrics that come from spans or counters and must be non-zero
#: on every workload (paper-reduced adds its store and pool spans).
SPAN_METRICS = ("apps.build_s", "machine.system.build_s", "quality.score_s",
                "quality.reference_s", "machine.thread.firings", "core.ecc.calls",
                "apps.work_self_s", "experiments.parallel.busy_share")
PAPER_SPAN_METRICS = ("experiments.store.share", "experiments.store.hits",
                      "experiments.fidelity.grade_share", "experiments.paper.bundle_share")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(workload: str, trace: int, declared: list[dict]) -> list[str]:
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    names = [entry["name"] for entry in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(names))} differ")
    for entry in declared:
        got = metrics.get(entry["name"], {})
        if got.get("unit") != entry["unit"]:
            problems.append(f"{label}: {entry['name']} unit {got.get('unit')!r}")
        if not isinstance(got.get("value"), (int, float)) or isinstance(got.get("value"), bool):
            problems.append(f"{label}: {entry['name']} value {got.get('value')!r}")
        elif not trace and not got["value"] > 0:
            problems.append(f"{label}: {entry['name']} is {got['value']}")
    if trace:
        required = SPAN_METRICS + (PAPER_SPAN_METRICS if workload == "paper-reduced" else ())
        problems += [f"{label}: {name} is empty" for name in required
                     if not metrics.get(name, {}).get("value", 0) > 0]
    return problems


def check_refuses_without_program() -> list[str]:
    """Only BENCHMARK.json and perfbench/: must exit non-zero, no result."""
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "dsp-guarded", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = check_result(workload, trace, declared)
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}")
            problems += found
    found = check_refuses_without_program()
    print(f"{'FAIL' if found else 'ok  '} refuses to run without the program")
    problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
