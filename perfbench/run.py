#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
simulator libraries (Release) and the perfbench binary under .bench_build/; later
calls reuse that build. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the provenance and the binary's detail record. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "nocstar"
BIN_BUILD = BUILD / "perfbench"
BINARY = BIN_BUILD / "perfbench"
BUILD_TYPE = "Release"

# Seed never used while the benchmark was tuned (self-test only).
HELD_OUT_SEED = 7919
# Largest relative gap allowed between the traced replay's L1 miss
# ratio and the untraced run's, unless the replay's own sampling error
# (three binomial standard errors) is wider.
REPLAY_MISS_TOLERANCE = 0.02


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                            cwd=ROOT).returncode
    if rc != 0:
        sys.stderr.write(log.read_text()[-4000:])
        die("build step failed: " + " ".join(cmd), 1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no simulator sources beside the benchmark: expected "
            "CMakeLists.txt and src/ at the repository root")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(os.cpu_count() or 1)
    if not (LIB_BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD),
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], log)
    run_logged(["cmake", "--build", str(LIB_BUILD), "--target",
                "nocstar_cpu", "-j", jobs], log)
    if not (BIN_BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BIN_BUILD),
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                    f"-DNOCSTAR_ROOT={ROOT}",
                    f"-DNOCSTAR_BUILD={LIB_BUILD}"], log)
    run_logged(["cmake", "--build", str(BIN_BUILD), "-j", jobs], log)


def source_digest():
    """Digest of the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    files = [ROOT / "CMakeLists.txt"]
    files += (ROOT / "src").rglob("*")
    files += (ROOT / "bench").glob("*.hh")
    files += HERE.rglob("*")
    h = hashlib.sha256()
    for path in sorted(p for p in files if p.is_file()):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def run_binary(workload, seed, seconds, trace):
    """Run the perfbench binary once; returns its parsed JSON record."""
    spans = BUILD / "spans" / f"{workload}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        die(f"{workload}: perfbench timed out", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die(f"{workload}: perfbench exited with {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"{workload}: perfbench printed no result", 1)
    return json.loads(lines[-1])


def check_units(record, declared):
    """Names and units the binary emitted vs those BENCHMARK.json
    declares; returns a list of problems."""
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    problems = [f"missing metric {n}" for n in declared if n not in got]
    problems += [f"undeclared metric {n}" for n in got if n not in declared]
    problems += [f"metric {n} has unit {got[n]}, declared {u}"
                 for n, u in declared.items() if n in got and got[n] != u]
    return problems


def self_test():
    """One repetition of every workload in both modes, on the held-out
    seed."""
    build()
    end_to_end, per_layer, workloads = declared_metrics()
    failures = []
    for workload in workloads:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            record = run_binary(workload, HELD_OUT_SEED, 0, trace)
            problems = check_units(record, declared)
            if not record["correct"]:
                problems.append("output checks failed: " +
                                "; ".join(record["detail"]["violations"]))
            if trace == 1:
                untraced = record["metrics"]["tlb.l1_miss_ratio"]["value"]
                replay = float(record["detail"]["replay_l1_miss_ratio"])
                lookups = int(record["detail"]["replay_accesses"])
                allowed = max(REPLAY_MISS_TOLERANCE * untraced,
                              3 * (replay * (1 - replay) / lookups) ** 0.5)
                if abs(replay - untraced) > allowed:
                    problems.append(
                        f"replay L1 miss ratio {replay:.5f} is more than "
                        f"{allowed:.5f} from the untraced {untraced:.5f}")
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += problems
    print("self-test " + ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    end_to_end, per_layer, workloads = declared_metrics()
    if args.workload not in workloads:
        die(f"unknown workload {args.workload}")
    load_before = os.getloadavg()
    record = run_binary(args.workload, args.seed, args.seconds, args.trace)
    load_after = os.getloadavg()

    detail = record["detail"]
    if "Rel" not in detail["build_type"]:
        die(f"refusing to report a {detail['build_type']!r} build", 1)
    problems = check_units(record, end_to_end if args.trace == 0
                           else per_layer)
    if problems:
        die("perfbench output does not match BENCHMARK.json: " +
            "; ".join(problems), 1)

    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": detail["compiler"],
        "build_type": detail["build_type"],
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"provenance": provenance, "detail": detail}))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
