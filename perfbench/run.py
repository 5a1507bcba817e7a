#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark program from the repository's sources (first run
only; later runs reuse the build) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cold_start, hard_single, hard_portfolio, serve_zipf, or
"all" to run each of them untraced and then traced. Run from the root
of a checkout. Build outputs, traces and scratch files go under
.bench_build/ at the root.

The program prints every metric as a "kind name value unit" row. The
last line of standard output is the result JSON of the run, built here
from those rows and BENCHMARK.json's metric names: the end-to-end
metrics of an untraced run, the per-layer metrics of a traced one. A
traced run also prints, before it, the traced-minus-untraced overhead
of each end-to-end metric against the untraced run of the same
workload, seed and code, and writes its spans as a Chrome trace.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["cold_start", "hard_single", "hard_portfolio", "serve_zipf"]
RUN_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the program (a no-op when up to date)."""
    sources = ROOT / "src"
    if not sources.is_dir() or not any(sources.glob("*/*.cpp")):
        fail(f"no library sources under {sources}; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B",
                          str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    if not BINARY.exists():
        fail("build produced no benchmark binary")


def code_digest():
    """Digest of the code a run measures: the library sources, the
    benchmark and BENCHMARK.json. Files the runs keep between
    invocations are keyed by it, so runs of other code never meet."""
    digest = hashlib.sha256()
    files = [p for tree in (ROOT / "src", BENCH_DIR)
             for p in tree.rglob("*") if p.is_file()
             and "__pycache__" not in p.parts]
    files.append(ROOT / "BENCHMARK.json")
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def parse_rows(lines):
    """{name: (kind, value, unit)} from the "kind name value unit" rows,
    and the (attempted, failed, correct) of the verdict line."""
    rows = {}
    verdict = None
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("e2e", "layer", "info"):
            rows[parts[1]] = (parts[0], float(parts[2]), parts[3])
        elif len(parts) == 6 and parts[0] == "attempted" and \
                parts[2] == "failed" and parts[4] == "correct":
            verdict = (int(parts[1]), int(parts[3]), parts[5] == "true")
    return rows, verdict


def build_result(rows, verdict, trace):
    """The result JSON: BENCHMARK.json's per-layer metrics when traced,
    its end-to-end ones otherwise, each required from the rows."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    kind = "layer" if trace else "e2e"
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        row = rows.get(name)
        if row is None or row[0] != kind or row[2] != metric["unit"]:
            fail(f"the program reported no {kind} row for {name} "
                 f"in {metric['unit']}")
        metrics[name] = {"value": row[1], "unit": row[2]}
    if verdict is None:
        fail("the program printed no attempted/failed/correct line")
    attempted, failed, correct = verdict
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def check_repeats(workload, digest, body, result):
    """Cross-run determinism guard.

    Every run of the same code must train bit-identical agents (weight
    fingerprints) and repeat the exact search-op count of every compile
    that finishes before its deadline, whatever the seed. The first run
    of the code records them; later runs of the same code must match.
    """
    observed = {}
    for line in body:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "info" and \
                parts[1].startswith("search_ops."):
            observed[parts[1]] = parts[2]
        elif len(parts) == 7 and parts[0] == "agent" and \
                parts[5] == "fingerprint":
            observed["fingerprint." + parts[1]] = parts[6]
    reference = BUILD_DIR / f"repeat-{workload}-{digest}.json"
    if not reference.exists():
        reference.write_text(json.dumps(observed))
        return
    expected = json.loads(reference.read_text())
    for key, value in observed.items():
        if key in expected and expected[key] != value:
            body.append(f"repeat mismatch: {key} is {value}, an earlier "
                        f"run of this code had {expected[key]}")
            result["correct"] = False


def run_one(workload, seed, seconds, trace, digest):
    """Run the program once; returns (result dict, printed lines)."""
    work = BUILD_DIR / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", str(work)]
    if trace:
        command += ["--trace-out",
                    str(BUILD_DIR / f"trace-{workload}-{seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with status {done.returncode}")
    rows, verdict = parse_rows(lines)
    result = build_result(rows, verdict, trace)
    check_repeats(workload, digest, lines, result)

    e2e = {name: row[1] for name, row in rows.items() if row[0] == "e2e"}
    untraced = BUILD_DIR / f"untraced-{workload}-{seed}-{digest}.json"
    if not trace:
        untraced.write_text(json.dumps(e2e))
    elif untraced.exists():
        base = json.loads(untraced.read_text())
        for name, value in e2e.items():
            if name in base:
                delta = value - base[name]
                share = delta / base[name] if base[name] else 0.0
                lines.append(f"overhead {name:28s} traced {value:.6g} "
                            f"untraced {base[name]:.6g} "
                            f"delta {delta:+.6g} ({share:+.2%})")
    else:
        lines.append("overhead: no untraced run of this workload, seed "
                    "and code to compare against")
    return result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    digest = code_digest()
    if args.workload != "all":
        result, body = run_one(args.workload, args.seed, args.seconds,
                               args.trace == 1, digest)
        print("\n".join(body))
        print(json.dumps(result), flush=True)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            print(f"=== {workload} ({'traced' if trace else 'untraced'})")
            result, body = run_one(workload, args.seed, args.seconds,
                                   trace, digest)
            print("\n".join(body))
            print(json.dumps(result))
            combined["correct"] = combined["correct"] and result["correct"]
            if not trace:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
