#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload secure-link --seed 1 --seconds 50 --trace 0

Every argument is passed to the benchmark binary. With `--workload all`
every workload listed in BENCHMARK.json runs in turn, each in its own
process, and the exit status is non-zero if any of them failed. The
build and the run read and write only inside the checkout: the Go build
cache, the binary, the reports and the scratch files all live under
.bench_build/. The exit status is the benchmark's; a failed build exits
non-zero before anything is printed on standard output.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")
BUILD_TIMEOUT_S = 840


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOPATH": os.path.join(BUILD, "go-path"),
        "GOMODCACHE": os.path.join(BUILD, "go-path", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "-buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=os.path.join(ROOT, "perfbench"),
            env=go_env(),
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else 0
    if 0 < at < len(args) and args[at] == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        status = 0
        for name in names:
            print(f"== {name}", flush=True)
            args[at] = name
            status = max(status, subprocess.run([BINARY] + args, cwd=ROOT).returncode)
        return status
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
