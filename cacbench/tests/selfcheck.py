#!/usr/bin/env python3
"""Self-check of the cacbench benchmark: a short fixed-seed run of each
workload, untraced and traced.

    python3 cacbench/tests/selfcheck.py [--seconds S]

Asserts, for every workload, that the last output line is the result
object, that every end-to-end metric (untraced) and every per-layer
metric (traced) named in BENCHMARK.json is emitted with its unit, that
the run is correct with nothing failed (ok_ratio 1, i.e. failed_ratio
0), and that every value is a finite number.  Exits 0 when all hold.
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 7


def run(workload, trace, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "cacbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    stamp = json.loads(lines[0])["stamp"]
    for key in ("rev", "build_type", "nproc", "seed"):
        assert key in stamp, f"stamp lacks {key}: {stamp}"
    return json.loads(lines[-1]), out.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            res, err = run(wl, trace, args.seconds)
            tag = f"{wl} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res.get("correct") or res.get("failed") != 0:
                problems.append(f"{tag}: not correct\n{err[-2000:]}")
            if res.get("attempted", 0) < 1:
                problems.append(f"{tag}: nothing attempted")
            metrics = res.get("metrics", {})
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{tag}: missing {m['name']}")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit {got.get('unit')}")
                elif not math.isfinite(got.get("value", math.nan)):
                    problems.append(f"{tag}: {m['name']} not finite")
            if trace == 0 and metrics.get("ok_ratio", {}).get("value") != 1:
                problems.append(f"{tag}: ok_ratio {metrics.get('ok_ratio')}")
            print(f"{tag}: {res.get('attempted')} attempted, "
                  f"{len(metrics)} metrics", flush=True)
    for p in problems:
        print("SELFCHECK FAIL", p)
    print("SELFCHECK", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
