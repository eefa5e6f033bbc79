#!/usr/bin/env python3
"""Builds the benchmark and the store binaries, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <sim_churn|check_explore|store_open> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` and `dds-svc`'s binaries in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then replaces itself with the
`perfbench` binary. Build output goes to stderr; stdout carries only the
benchmark's metric lines and, last, its JSON result line. Exits non-zero
without a result line when the build fails.
"""

import os
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
        "-p", "perfbench", "-p", "dds-svc", "--bins",
    ]
    pid = os.fork()
    if pid == 0:
        os.dup2(2, 1)  # build chatter to stderr
        try:
            os.execvpe(build[0], build, env)
        finally:
            os._exit(127)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        sys.exit(3)
    bin_dir = os.path.join(target, "release")
    # Socket paths must stay under the 108-byte limit, so keep them
    # relative to the working directory where possible.
    out_dir = os.path.relpath(os.path.join(target, "perfbench"))
    exe = os.path.join(bin_dir, "perfbench")
    args = [exe, *sys.argv[1:], "--bin-dir", bin_dir, "--out-dir", out_dir]
    os.execv(exe, args)


if __name__ == "__main__":
    main()
