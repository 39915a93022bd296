"""Start stage processes on request and report their wall time and peak RSS.

    python3 pipebench/launch.py

Reads one JSON request per line on standard input,
``{"argv": [...], "cwd": DIR, "env": {...}, "log": FILE, "timeout": S}``,
runs it to the end (killed after ``timeout`` seconds) and answers with one
JSON line ``{"code": N, "seconds": S, "rss_kb": K, "floor_kb": F}``. It exits
when its standard input closes; on SIGTERM it kills the running stage, waits
for it and exits.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the address space
it replaced at ``execve``, i.e. the process that spawned it. Spawning the
stages from this small process rather than from the benchmark driver (numpy
and the generated corpora) keeps that floor at ``floor_kb``, the peak RSS of
this process's own address space (``VmHWM``; its ``ru_maxrss`` would again
include the driver's), so a stage that needs less memory than the driver
still shows it. Imports stay minimal for the same reason.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def address_space_peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def launch(req: dict) -> dict:
    with open(req["log"], "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {
        "code": code,
        "seconds": seconds,
        "rss_kb": usage.ru_maxrss,
        "floor_kb": address_space_peak_kb(),
    }


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(launch(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
