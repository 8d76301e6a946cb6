"""Run one command and report its exit code, wall time, CPU time and peak RSS.

    python -I -S perfbench/launch.py <report fd> <absolute program path> [args...]

The report is one JSON object written to the inherited file descriptor.
A process's ru_maxrss starts from the memory of the process that forked it,
so run.py, which is larger than a small query, starts each
query through this minimal interpreter and reads the query's own peak here.
"""

import json
import os
import sys
import time


def main() -> int:
    fd = int(sys.argv[1])
    cmd = sys.argv[2:]
    os.set_inheritable(fd, False)
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with os.fdopen(fd, "w") as report:
        json.dump({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "rss_kb": usage.ru_maxrss}, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
