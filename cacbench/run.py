#!/usr/bin/env python3
"""cacbench entry point: build the benchmark program, then run one workload.

    python3 cacbench/run.py --workload check-explore --seed 1 --seconds 10 --trace 0

Builds cacbench/ (a CMake package that compiles the verifier from ../src)
into $CARGO_TARGET_DIR/cacbench (default .bench_build/cacbench under the
checkout), runs it, and relays its output: a stamp line, then as
the last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exits non-zero without a result when the verifier sources are
missing or the build fails.  See cacbench/README.md.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check-explore", "static-batch", "serve-mix")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"cacbench: {msg}", file=sys.stderr, flush=True)


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def build(build_root):
    """Configure (once) and build the benchmark program; returns its path."""
    bdir = build_root / "cacbench"
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").exists():
            cfg = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(bdir),
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                raise RuntimeError("cmake configure failed")
        out = subprocess.run(
            ["cmake", "--build", str(bdir), "-j", jobs, "--target", "cacbench"],
            stdout=sys.stderr, stderr=sys.stderr)
        if out.returncode != 0:
            raise RuntimeError("build failed")
    return bdir / "cacbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no verifier sources under {ROOT / 'src'}; nothing to measure")
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    try:
        exe = build(build_root)
    except RuntimeError as e:
        log(str(e))
        return 2

    work = build_root / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--work-dir", os.path.relpath(work, ROOT),
           "--rev", revision()]
    try:
        # Relative work paths keep unix socket paths short; run from ROOT.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
