#!/usr/bin/env python3
"""Build the benchmark program from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-cacheres --seed 0 --seconds 30 --trace 0

The program's report goes to standard output; its last line is one JSON
object with the keys correct, attempted, failed and metrics.  Build output
goes to standard error.  Outside a full checkout (no dune-project or lib/)
the script exits with code 2 without printing a result.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
PROGRAM = os.path.join("_build", "default", "perfbench", "main.exe")


def run(cmd, timeout, stdout):
    """Run cmd to completion; on timeout stop it (and wait) and return None."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        sys.stderr.write(f"perfbench: {cmd[0]} timed out after {timeout} s\n")
        return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run from the root of a full checkout "
            "(dune-project and lib/ not found)\n"
        )
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    # the shared dune cache lives outside the checkout; build without it
    os.environ["DUNE_CACHE"] = "disabled"
    code = run(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        sys.stderr,
    )
    if code != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    code = run([PROGRAM] + sys.argv[1:], RUN_TIMEOUT_S, sys.stdout)
    return 2 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
