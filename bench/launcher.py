"""Starts the benchmark's child processes from a small process.

A child's peak RSS, as ``wait4`` reports it, includes the peak RSS of the
process that started it: Python starts children with vfork, and the kernel
keeps the larger of the two high-water marks across exec. The benchmark
process holds whole traces, so it starts every child through this
launcher, which imports nothing large and stays small.

Protocol: one JSON job per line on stdin, ``{"cmd", "cwd", "env",
"stdout", "stderr", "timeout"}``; one JSON result per line on stdout,
``{"seconds", "code", "maxrss_kb"}``. A child still running after
`timeout` seconds is killed. The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(job: dict) -> dict:
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["cmd"], cwd=job["cwd"], env=job["env"],
                                stdout=out, stderr=err)
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - start
    return {"seconds": seconds, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
