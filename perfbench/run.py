#!/usr/bin/env python3
"""Build the benchmark and the escalate CLI from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oneshot_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --record    # rewrite perfbench/expected.txt

Both packages build in release mode into $CARGO_TARGET_DIR (default
.bench_build at the checkout root); build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "escalate-cli"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]
    for manifest, extra in steps:
        if not os.path.isfile(manifest):
            sys.exit(f"perfbench: {manifest} is missing; run from a repository checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work")
    bench = os.path.join(release, "perfbench")
    if sys.argv[1:] == ["--record"]:
        with open(os.path.join(HERE, "expected.txt"), "w") as out:
            code = subprocess.run([bench, "record", "--work-dir", work], stdout=out).returncode
    else:
        cmd = [bench, *sys.argv[1:], "--escalate", os.path.join(release, "escalate"), "--work-dir", work]
        code = subprocess.run(cmd).returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
