"""Run one ``repro`` console entry point under the bench's layer clock.

Traced benchmark runs start their subprocesses through this file instead
of ``python -m MODULE``::

    python -X importtime benchmarks/e2e/child.py LAYERS_OUT MODULE [ARG ...]

It imports ``MODULE`` (the start-up imports ``-X importtime`` reports),
prints :data:`layers.IMPORT_MARKER` to stderr, installs a
:class:`layers.LayerClock` plus a tracer feeding it, and calls
``MODULE.main(ARGS)`` -- the function the console script calls.  On exit,
and on every SIGUSR1, it appends one JSON snapshot line to LAYERS_OUT;
the bench takes differences of snapshots to isolate a time window.
"""

from __future__ import annotations

import importlib
import json
import signal
import sys
import time

import layers


def main() -> int:
    out, module, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    entry = importlib.import_module(module)
    import_s = time.perf_counter() - start
    print(layers.IMPORT_MARKER, file=sys.stderr, flush=True)

    from repro.obs import set_tracer

    clock = layers.LayerClock()
    clock.install()
    set_tracer(clock.tracer())

    def dump(*_signal) -> None:
        snap = clock.snapshot()
        snap["import_s"] = import_s
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(snap) + "\n")

    signal.signal(signal.SIGUSR1, dump)
    try:
        return entry.main(argv)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main())
