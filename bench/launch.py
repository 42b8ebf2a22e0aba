"""Run one program and record its wall time, peak RSS and exit code.

    python3 -I -S launch.py REPORT PROGRAM [ARG ...]

Linux carries a process's peak RSS across exec, so a child started straight
from the benchmark runner would report at least the runner's own peak. This
launcher imports nothing beyond built-in modules, stays small, and starts the
program from itself, so the peak RSS that ``wait4`` returns is the program's
own. The report is one line: ``wall_s peak_rss_kb exit_code``.
"""

import os
import sys
import time

report, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(report, "w") as fh:
    fh.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")
