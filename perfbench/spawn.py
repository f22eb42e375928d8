"""Run one command and report its wall time and rusage as JSON on a given fd.

    python3 spawn.py REPORT_FD TIMEOUT_S COMMAND [ARG...]

The command inherits this process's stdin, stdout and stderr. The report
is {"wall_s", "cpu_s", "maxrss_kib", "code"}; "code" is null when the
command was killed at the timeout.

run.py starts every measured child through this small process, not
directly. On Linux a child started by vfork (which subprocess uses)
takes the spawning process's peak RSS into its own ru_maxrss when it
calls exec, so a child of the benchmark process, which holds captured
outputs and parsed JSON, would report that peak instead of its own.
"""

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def main() -> None:
    report_fd, timeout, command = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
    except _Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        code = None
    proc.returncode = -1  # reaped above; keeps Popen from waiting again
    report = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "code": code,
    }
    os.write(report_fd, json.dumps(report).encode())


if __name__ == "__main__":
    main()
