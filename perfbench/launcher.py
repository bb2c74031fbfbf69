"""Child-process launcher for the CLI runs.

A child's ru_maxrss includes the high-water mark of the process it was
spawned from, so CLI children are started from this small process, which
imports neither numpy nor streamfilt, rather than from the benchmark. It
reads one JSON request per line on stdin and answers one JSON line on
stdout: exit code, wall seconds and the child's own peak RSS from os.wait4.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_child(argv, *, env, cwd, stdout_path, stderr_path, timeout_s=150.0) -> dict:
    """Run one child and reap it with os.wait4, so the RSS is this child's alone.

    RUSAGE_CHILDREN would report the largest child reaped so far. The child
    is killed if it outlives timeout_s.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            killer.join()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped here; keeps Popen from waiting again
    return {"exit_code": code, "wall_s": wall, "peak_rss_bytes": usage.ru_maxrss * 1024}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run_child(**request)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
