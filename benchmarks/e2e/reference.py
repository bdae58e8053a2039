"""A fixed CPU kernel that times the host, not the program.

The shared host's speed drifts by 10-40% within minutes, and by as much
within seconds; the program and this kernel slow down together.  A run
times the kernel between its ops -- while the program is idle, so the
kernel never competes with it -- and ``bench.py`` scales the run's
timings by the kernel's median: a drift then cancels, while every change
to the program stays in the numbers.

The kernel does what the program spends its time on -- numpy sorts,
gathers and scatters over a few MB, and interpreted loops over dicts --
and imports nothing from the program, so no change to the program moves
it.  It runs in its own process, started once per run, so its memory
and imports stay out of the bench's.

    python3 benchmarks/e2e/reference.py

reads one repetition count per line on stdin and answers each with one
JSON line on stdout: the seconds each repetition took.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

#: the kernel's median on the reference host (2-core Xeon VM, 2.1 GHz);
#: scaled timings read as if the run had met the host at that speed
REFERENCE_HOST_S = 0.05


class Reference:
    """The kernel's process, as the bench drives it."""

    def __init__(self, box) -> None:
        self.proc = box.popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.times: List[float] = []

    def sample(self, reps: int = 1) -> None:
        """Time ``reps`` repetitions now; call it only while the program idles."""
        self.proc.stdin.write(f"{reps}\n")
        self.proc.stdin.flush()
        self.times += json.loads(self.proc.stdout.readline())

    def close(self) -> float:
        """Stop the process; returns reference-host seconds per host second."""
        self.proc.stdin.close()
        self.proc.wait()
        return REFERENCE_HOST_S / statistics.median(self.times)


def _kernel(keys, index) -> int:
    import numpy as np

    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys[index] % 4096, minlength=4096)
    sums = np.add.reduceat(keys[order], np.arange(0, keys.size, 64))
    table: dict = {}
    for i in range(40_000):
        table[i & 1023] = table.get(i & 1023, 0) + i % 13
    return int(sums[-1]) + int(counts.max()) + len(table)


def main() -> int:
    import numpy as np

    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 20, 1 << 18)
    index = rng.integers(0, keys.size, 1 << 19)
    _kernel(keys, index)  # warm-up: first-touch page faults, caches
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            start = time.perf_counter()
            _kernel(keys, index)
            times.append(time.perf_counter() - start)
        print(json.dumps(times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
