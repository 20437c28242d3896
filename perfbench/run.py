#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload,
check its outputs, and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload litmus_campaign --seed 1 \
        --seconds 10 --trace 0

--workload all runs every workload in turn. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is {"meta": ...} with
the run's provenance (git sha, source digest, build type, compiler,
nproc, threads, seed, run length, repetitions) and raw samples. The
exit status is 0 only when every correctness check passed.

    python3 perfbench/run.py --fingerprint-diff OLD.json NEW.json

compares two simulated-statistics fingerprints (written with
--fingerprint FILE) and names every counter that changed.

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), configured with CMake from perfbench/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "RelWithDebInfo"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure and build perfbench; returns the binary path or None."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                f.flush()
                tail = log.read_text().splitlines()[-20:]
                print("perfbench: build failed:", *tail, sep="\n",
                      file=sys.stderr)
                return None
    return out / "perfbench"




def provenance():
    """Git sha when the checkout is a repository, and a digest of the
    sources and inputs the benchmark builds and reads."""
    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            sha = r.stdout.strip()
    h = hashlib.sha256()
    for top in ["src", "perfbench", "tests/litmus"]:
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return {"git_sha": sha, "source_sha256": h.hexdigest()}


def failure(attempted, why):
    print("CHECK FAILED: " + why)
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}}


def run_timeout(seconds):
    """Seconds one perfbench process may take: twice the measured time
    (set-up batches and the reference repetitions run beside it) plus a
    fixed margin; 170 s at --seconds 15."""
    return 140 + 2 * seconds


def run_one(binary, args, workload, extra):
    """Run one workload; returns (result, meta) and echoes its report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(build_dir() / "tmp")] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=run_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        return failure(1, workload + ": timed out"), {}
    lines = proc.stdout.splitlines()
    ops, meta, result = 1, {}, None
    for line in lines:
        if line.startswith('{"plan"'):
            ops = json.loads(line)["plan"]["ops_per_rep"]
        elif line.startswith('{"meta"'):
            meta = json.loads(line)["meta"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
        else:
            print(line)
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    if result is None or proc.returncode not in (0, 1):
        return failure(ops, "%s: perfbench exited with status %d"
                       % (workload, proc.returncode)), meta

    section = SPEC["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        result["correct"] = False
        print("CHECK FAILED: %s: metrics differ from BENCHMARK.json: %s"
              % (workload, sorted(set(got.items()) ^ set(want.items()))))
    return result, meta


def fingerprint_diff(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    changed = []
    for section in ("counters", "stats"):
        a, b = old.get(section, {}), new.get(section, {})
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                changed.append("%s %s: %s -> %s" % (
                    section, name, a.get(name, "(absent)"),
                    b.get(name, "(absent)")))
    for line in changed:
        print("changed " + line)
    print("fingerprints %s (%d counters changed)"
          % ("differ" if changed else "match", len(changed)))
    return 1 if changed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--fingerprint", metavar="FILE",
                    help="write the simulated-statistics fingerprint")
    ap.add_argument("--plant-wrong-count", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--fingerprint-diff", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()

    if args.fingerprint_diff:
        return fingerprint_diff(*args.fingerprint_diff)
    if not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 3
    extra = []
    if args.fingerprint:
        extra += ["--fingerprint", str(Path(args.fingerprint).resolve())]
    if args.plant_wrong_count:
        extra.append("--plant-wrong-count")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    prov = provenance()
    results = {}
    for w in workloads:
        started = time.time()
        result, meta = run_one(binary, args, w, extra)
        meta.update(prov)
        meta["host_seconds"] = time.time() - started
        results[w] = result
        record = build_dir() / "results" / (
            "%s-seed%d-trace%d.json" % (w, args.seed, args.trace))
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({"meta": meta, "result": result},
                                     indent=1) + "\n")
        print(json.dumps({"meta": meta}))
        if len(workloads) > 1:
            print(json.dumps({"workload": w, **result}))

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w + "/" + k: v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
