#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload baseline|churn|planner|all \
        --seed N --seconds S --trace 0|1

Builds the benchmark (its own cargo package under perfbench/) and the
`planner` binary it drives, both in release mode and offline, then runs
the benchmark. For a single workload the benchmark's last stdout line is
its JSON record; `--workload all` runs every workload in turn and prints
each metric by name with its unit. The exit code is non-zero when a build
fails or any correctness check fails.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["baseline", "churn", "planner"]
HERE = os.path.dirname(os.path.abspath(__file__))


def cargo_build(args):
    """Run `cargo build` and return the built executables by target name."""
    cmd = [os.environ.get("CARGO", "cargo"), "build", "--release", "--offline",
           "--quiet", "--message-format=json-render-diagnostics"] + args
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("run.py: build failed: " + " ".join(cmd))
    exes = {}
    for line in out.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes[msg["target"]["name"]] = msg["executable"]
    return exes


def main():
    argv = sys.argv[1:]
    bench = cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])["perfbench"]
    planner = cargo_build(["-p", "sbgp_bench", "--bin", "planner"])["planner"]
    # One malloc arena per process (the benchmark's and the planner's it
    # spawns), so peak RSS reads live memory rather than how glibc spread
    # two threads' allocations over per-thread arenas.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    if "--workload" in argv and argv[argv.index("--workload") + 1] == "all":
        i = argv.index("--workload")
        failed = False
        for w in WORKLOADS:
            run = argv[:i] + ["--workload", w] + argv[i + 2:]
            out = subprocess.run([bench, "--planner", planner] + run,
                                 stdout=subprocess.PIPE, text=True, env=env)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                failed = True
            if lines:
                record = json.loads(lines[-1])
                for name, m in record["metrics"].items():
                    print(f"{w:<9} {name:<26} {m['value']:>16.6f} {m['unit']}")
                rate = record["failed"] / max(record["attempted"], 1)
                print(f"{w:<9} {'error_rate':<26} {rate:>16.6f} "
                      f"({record['failed']} of {record['attempted']} checks failed)")
        return 1 if failed else 0
    return subprocess.run([bench, "--planner", planner] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
