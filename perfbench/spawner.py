"""Start the benchmark's commands from a process that stays small.

The peak RSS that ``wait4`` reports for a child includes the high-water mark
of the process that spawned it: Linux records the old address space's peak
when the child calls exec.  The benchmark process imports numpy and parses
large outputs, so it hands every command to this stdlib-only process.

Reads one JSON request per line on stdin,
    {"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s}
runs it to completion and writes one JSON reply per line on stdout,
    {"rc": int, "wall_s": float, "cpu_s": float, "maxrss_kb": int}.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main() -> int:
    running: list[subprocess.Popen] = []

    def stop(signum, frame):
        for proc in running:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                    stdout=out, stderr=err)
            running.append(proc)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        running.clear()
        print(json.dumps({"rc": proc.returncode, "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
