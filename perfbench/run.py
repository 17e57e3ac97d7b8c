#!/usr/bin/env python3
"""Build and run UniDrive's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bulk|edits --seed N --seconds S --trace 0|1

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
repository's module through a replace directive, so it builds the client
from the source in this checkout. Everything the build and the run leave
behind goes under the build directory ($CARGO_TARGET_DIR, or
.bench_build): the Go build cache, the devices' folders and the trace
output. Arguments are passed through to the benchmark binary; its last
line of standard output is the JSON result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT = 840  # the first build in a fresh checkout compiles everything
RUN_TIMEOUT = 176  # the binary bounds itself at 170 s; this is the backstop


def run(cmd, cwd, env, timeout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout:.0f}s", file=sys.stderr)
        return 124


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Everything the toolchain writes (build cache, temporary files,
    # telemetry and config) stays inside the build directory; nothing is
    # fetched over the network.
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    rc = run(["go", "build", "-o", binary, "."], bench_dir, env, BUILD_TIMEOUT)
    if rc != 0:
        print("perfbench: build failed; run from the root of a UniDrive checkout", file=sys.stderr)
        return rc or 1
    args = [
        "--workdir", os.path.join(build, "work"),
        "--trace-out", os.path.join(build, "trace"),
    ] + sys.argv[1:]
    return run([binary] + args, root, env, RUN_TIMEOUT)


if __name__ == "__main__":
    sys.exit(main())
