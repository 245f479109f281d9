#!/usr/bin/env python3
"""Build and run the lbmf benchmark.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload kv_read_mostly --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones. The last line of stdout is the result as one JSON object. With
`--out FILE` the result is also saved together with the configuration it
was measured on, and

    python3 perfbench/run.py --compare A.json B.json

compares two saved results, refusing (exit 2) when their configurations
differ. The program is built from this checkout's sources with cargo,
into `$CARGO_TARGET_DIR` (default: `.bench_build` at the repository root).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Build the benchmark binary; return its path, or None if cargo failed."""
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "lbmf-perfbench")


def run(args):
    exe = build()
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print(f"run.py: malformed result line: {lines[-1]}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if args.out:
        config = json.loads(next(l for l in lines if l.startswith("config "))[len("config "):])
        with open(args.out, "w") as f:
            json.dump({"config": config, "result": result}, f, indent=1)
    return 0


def compare(path_a, path_b):
    """Print each metric of two saved results side by side."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    differ = sorted(k for k in set(a["config"]) | set(b["config"])
                    if a["config"].get(k) != b["config"].get(k))
    if differ:
        for k in differ:
            print(f"config {k}: {a['config'].get(k)} vs {b['config'].get(k)}")
        print("run.py: refusing to compare results of different configurations", file=sys.stderr)
        return 2
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            print(f"{name}: only in {path_a}")
            continue
        change = (mb["value"] / ma["value"] - 1) * 100 if ma["value"] else float("nan")
        print(f"{name}: {ma['value']:.6g} -> {mb['value']:.6g} {ma['unit']} ({change:+.1f}%)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
