"""Benchmark of the fstclock pipeline.

    python3 perfbench/run.py --workload chain-10y --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the ``src/`` directory next
to this one.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it holds the facts of the run (machine,
inputs, pass-time distribution).  Scratch files go to ``.perfbench_work/``.

``--workload all`` runs every workload in its own process, one after the
other, prints one line per workload with ``failed_frac`` added, and ends with
one JSON object keyed by workload.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("chain-10y", "calib-inmem", "chain-small")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["failed_frac"] = result["failed"] / result["attempted"]
        summary[name] = result
        print(f"{name}: {json.dumps(result)}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fstclock" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: needs {SRC / 'fstclock'} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import fstclock
    import workloads

    if not Path(fstclock.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported fstclock from {fstclock.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    facts = workloads.machine_facts()
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    facts.update(outcome.facts)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {}
    finite = True
    for m in wanted:
        value = float(outcome.metrics[m["name"]])
        finite = finite and math.isfinite(value)
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None,
                              "unit": m["unit"]}
    ops = outcome.ops
    for failure in ops.failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    facts["failures"] = ops.failures[:20]
    (work / "facts.json").write_text(json.dumps(facts, indent=1) + "\n")
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": ops.failed == 0 and finite,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
