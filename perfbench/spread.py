#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload pairs20k --seeds 1 2 3 4 5

The runs are sequential, each in its own process, with the command and
run length from BENCHMARK.json. The spread is the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median. A spread above a third of its bound is flagged; one above
its bound fails the check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    ok = True
    for workload in args.workload:
        results = []
        for seed in args.seeds:
            start = time.perf_counter()
            res = run_once(spec, workload, seed)
            results.append(res)
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.0f} s): "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()),
                  flush=True)
            ok &= res["correct"]
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median)
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  ABOVE A THIRD OF BOUND"
            print(f"  {name:<14} median {median:.6g} spread {spread:.4f} bound {bound}{flag}")
            rows[name] = {"values": vals, "median": median, "spread": spread, "bound": bound}
        report[workload] = {"seeds": args.seeds, "metrics": rows}
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
