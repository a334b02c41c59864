"""Self-test: an interrupted ``edit-fleet`` run leaves nothing behind.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Starts the benchmark on ``edit-fleet`` twice, and stops it midway
through its measured phase, once with SIGINT and once with SIGTERM.
Each time it checks that the run exits with code 130 without printing a
result, that the run's own hygiene report is ``ok``, that every child
process the run had started (read from ``/proc`` while it was
measuring) is gone, and that no new ``/dev/shm`` entry remains. Exits
non-zero on any failure.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import children_of  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180.0


def alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def interrupted_run(signum: int) -> list[str]:
    shm_before = shm_names()
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "edit-fleet",
         "--seed", "3", "--seconds", "20", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    problems = []
    try:
        deadline = time.monotonic() + TIMEOUT_S
        for line in proc.stderr:
            if line.startswith("perfbench: measuring"):
                break
            if time.monotonic() > deadline:
                break
        time.sleep(2.0)  # well inside the measured phase
        workers = children_of(proc.pid)
        if not workers:
            problems.append("no fleet worker was running mid-run")
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    name = signal.Signals(signum).name
    if proc.returncode != 130:
        problems.append(f"{name}: exit code {proc.returncode}, expected 130")
    if '"correct"' in out:
        problems.append(f"{name}: a result was printed after the interrupt")
    if "perfbench: hygiene ok" not in err:
        problems.append(f"{name}: run reported {err.strip()[-300:]!r}")
    for pid in workers:
        if alive(pid):
            problems.append(f"{name}: child pid {pid} still alive")
    for entry in sorted(shm_names() - shm_before):
        problems.append(f"{name}: /dev/shm/{entry} left behind")
    return problems


def main() -> int:
    problems = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        problems += interrupted_run(signum)
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: ok" if not problems else "selftest: failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
