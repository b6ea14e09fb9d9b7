#!/usr/bin/env python3
"""Build and run the SCIDIVE end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload carrier_mix --seed 1 --seconds 40 --trace 0

The first run configures and builds perfbench/ (a Release build of the
library sources in src/ plus the benchmark program) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs rebuild only what changed. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}. The exit status
is nonzero when the sources are missing, the build fails or a correctness
check fails.

Workloads: carrier_mix, signaling_storm, media_fanout. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics (and writes the sampled
span log next to the build). See perfbench/README.md.

    python3 perfbench/run.py --pin 0-63   # re-pin expected.json (see README)
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("carrier_mix", "signaling_storm", "media_fanout")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (SOURCES / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources at {SOURCES}; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "scidive_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return out / "scidive_perfbench"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (SOURCES, HERE):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def load_expected():
    if not EXPECTED.is_file():
        return {}
    with open(EXPECTED) as f:
        return json.load(f)


def pin(binary, seeds):
    """Record the single-engine output digest of each workload and seed."""
    expected = load_expected()
    for workload in WORKLOADS:
        table = expected.setdefault(workload, {})
        for seed in seeds:
            r = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                                "--outputs-only"], capture_output=True, text=True)
            if r.returncode != 0:
                sys.exit(f"perfbench: pinning {workload} seed {seed} failed:\n{r.stdout}{r.stderr}")
            line = json.loads(r.stdout.strip().splitlines()[-1])
            table[str(seed)] = line["outputs"]
            print(f"{workload} seed {seed}: {line['outputs']} "
                  f"({line['alerts']} alerts, {line['verdicts']} verdicts)")
        expected[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1)
        f.write("\n")


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the capture (self-test); 1.0 is the benchmark")
    ap.add_argument("--pin", metavar="LO-HI", help="re-pin expected.json for these seeds")
    args = ap.parse_args()

    binary = build()
    if args.pin:
        pin(binary, parse_seeds(args.pin))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", str(args.scale),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    pinned = load_expected().get(args.workload, {}).get(str(args.seed))
    if pinned and args.scale == 1.0:
        cmd += ["--expect", pinned]
    if args.trace == "1":
        traces = build_dir().parent / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
