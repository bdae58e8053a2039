"""Layer accounting measured from outside the program.

The benchmark never edits ``src/``.  Instead :class:`LayerClock` replaces
the public functions of each layer -- wherever a loaded ``repro.*``
module binds them -- with a timing wrapper, and reads the engine's
existing phase spans through a :class:`repro.obs.Tracer` listener.  Each
wrapper and phase span is charged its *self* time: its duration minus the
wrapped calls and phase spans nested inside it.  Layers therefore never
overlap, and together with a named ``unattributed`` remainder they sum to
the wall time they were measured over.

Nothing here imports ``repro`` at module load, so ``child.py`` can import
this module before the program and keep ``-X importtime`` clean.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

#: stderr line ``child.py`` prints once the program is imported, so the
#: ``-X importtime`` lines before it are the start-up imports only
IMPORT_MARKER = "e2e-child: imported"

#: layer -> (seconds metric, calls metric) in the per-layer metric table
LAYER_METRICS = {
    "graph.generate": ("graph.generate_s", "graph.generate_calls"),
    "cache.get": ("cache.get_s", "cache.get_calls"),
    "cache.put": ("cache.put_s", None),
    "partition.partition": ("partition.partition_s", "partition.calls"),
    "partition.mirror": ("partition.mirror_s", "partition.mirror_calls"),
    "engine.prepare": ("engine.prepare_s", None),
    "engine.record": ("engine.record_self_s", None),
    "engine.profile": ("engine.profile_s", None),
    "engine.traverse": ("engine.traverse_s", None),
    "engine.aggregate": ("engine.aggregate_s", None),
    "engine.apply": ("engine.apply_s", None),
    "arch.run": ("arch.run_s", "arch.run_calls"),
    "arch.replay": ("arch.replay_s", "arch.replay_calls"),
    "arch.compare": ("arch.compare_self_s", None),
}


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _targets():
    """``(layer, original, rebind)`` for every callable the clock wraps.

    ``repro.partition`` resolves to the facade *function*, so the
    submodules are reached through :func:`importlib.import_module`.
    """
    mod = importlib.import_module
    datasets = mod("repro.graph.datasets")
    mirrors = mod("repro.partition.mirrors")
    engine = mod("repro.arch.engine")
    trace = mod("repro.arch.trace")
    compare = mod("repro.arch.compare")
    store = mod("repro.cache.store")
    artifacts = mod("repro.cache.artifacts")
    pbase = mod("repro.partition.base")
    abase = mod("repro.arch.base")
    mod("repro.partition.registry")  # loads every partitioner class
    mod("repro.arch.registry")

    functions = [
        ("graph.generate", datasets.load_dataset),
        ("partition.mirror", mirrors.build_mirror_table),
        ("engine.prepare", engine.prepare_graph),
        ("engine.record", trace.record_trace),
        ("arch.compare", compare.compare_architectures),
    ]
    methods = [
        ("cache.get", store.ArtifactCache, "get"),
        ("cache.put", store.ArtifactCache, "put"),
    ]
    # CachedPartitioner only keys the cache and delegates; its inner
    # partitioner is the one doing the work.
    for cls in _subclasses(pbase.Partitioner):
        if "partition" in vars(cls) and cls is not artifacts.CachedPartitioner:
            methods.append(("partition.partition", cls, "partition"))
    sims = [abase.ArchitectureSimulator, *_subclasses(abase.ArchitectureSimulator)]
    for name in ("run", "replay"):
        methods += [(f"arch.{name}", cls, name) for cls in sims if name in vars(cls)]
    return functions, methods


def _put_bytes(args: tuple, kwargs: Mapping[str, Any]) -> int:
    arrays = args[3] if len(args) > 3 else kwargs.get("arrays", {})
    return int(sum(getattr(a, "nbytes", 0) for a in arrays.values()))


class LayerClock:
    """Self-time accounting over wrapped layer calls and phase spans.

    Thread-safe: each thread keeps its own stack of open frames, and the
    totals are updated under a re-entrant lock (re-entrant because
    ``child.py`` snapshots from a signal handler on the main thread).
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: extra counters: cache hits/bytes, engine iterations/edges, spans
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.RLock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge(self, layer: str, elapsed: float, child: float, outer) -> None:
        with self._lock:
            self.self_s[layer] += elapsed - child
            # A wrapped override calling its wrapped base is one call.
            if outer is None or outer[0] != layer:
                self.calls[layer] += 1
        if outer is not None:
            outer[1] += elapsed

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with its self time charged to ``layer``."""
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = clock._stack()
            outer = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                clock._charge(layer, elapsed, frame[1], outer)
            if layer == "cache.get" and result is not None:
                with clock._lock:
                    clock.counts["cache.hits"] += 1
            elif layer == "cache.put":
                with clock._lock:
                    clock.counts["cache.put_bytes"] += _put_bytes(args, kwargs)
            return result

        return timed

    def install(self) -> None:
        """Wrap every target wherever a loaded ``repro.*`` module binds it."""
        functions, methods = _targets()
        for layer, original in functions:
            wrapped = self.wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if module is None or not name.startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._undo.append(
                            functools.partial(setattr, module, attr, original)
                        )
        for layer, cls, attr in methods:
            original = vars(cls)[attr]
            setattr(cls, attr, self.wrap(layer, original))
            self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def on_span_end(self, span) -> None:
        """Tracer listener: phase spans become ``engine.<phase>`` layers."""
        duration = span.duration_s or 0.0
        with self._lock:
            self.counts["spans"] += 1
            if span.category == "run":
                self.counts["spans.run_s"] += duration
            if span.category != "phase":
                return
            layer = f"engine.{span.name}"
            self.self_s[layer] += duration
            self.calls[layer] += 1
            if span.name == "profile":
                self.counts["engine.iterations"] += 1
            elif span.name == "traverse":
                self.counts["engine.edges"] += int(span.attrs.get("edges", 0))
        stack = self._stack()
        if stack:
            stack[-1][1] += duration

    def tracer(self):
        """A fresh :class:`repro.obs.Tracer` reporting to this clock."""
        from repro.obs import Tracer

        tracer = Tracer()
        tracer.add_listener(self.on_span_end)
        return tracer

    # ------------------------------------------------------------------ #
    # Readout
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def delta(after: Mapping, before: Mapping) -> Dict[str, Dict[str, float]]:
    """``after - before`` for two :meth:`LayerClock.snapshot` values."""
    return {
        part: {
            key: value - before.get(part, {}).get(key, 0)
            for key, value in after.get(part, {}).items()
        }
        for part in ("self_s", "calls", "counts")
    }


def merge(snapshots: Iterable[Mapping]) -> Dict[str, Dict[str, float]]:
    total: Dict[str, Dict[str, float]] = {
        "self_s": defaultdict(float),
        "calls": defaultdict(float),
        "counts": defaultdict(float),
    }
    for snap in snapshots:
        for part in total:
            for key, value in snap.get(part, {}).items():
                total[part][key] += value
    return {part: dict(values) for part, values in total.items()}


def layer_metrics(snap: Mapping) -> Dict[str, float]:
    """The per-layer metric values a snapshot gives (absent layers are 0)."""
    self_s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]
    out: Dict[str, float] = {}
    for layer, (seconds_name, calls_name) in LAYER_METRICS.items():
        out[seconds_name] = self_s.get(layer, 0.0)
        if calls_name is not None:
            out[calls_name] = calls.get(layer, 0)
    gets = calls.get("cache.get", 0)
    out["cache.hit_ratio"] = counts.get("cache.hits", 0) / gets if gets else 0.0
    out["cache.put_bytes"] = counts.get("cache.put_bytes", 0)
    out["engine.iterations"] = counts.get("engine.iterations", 0)
    out["engine.edges"] = counts.get("engine.edges", 0)
    return out


# --------------------------------------------------------------------------- #
# -X importtime
# --------------------------------------------------------------------------- #


def parse_importtime(stderr: str) -> Optional[Dict[str, float]]:
    """``import.*`` values from one process's ``-X importtime`` output.

    Only lines before :data:`IMPORT_MARKER` count when the marker is
    present, so imports made lazily inside a measured layer are not
    charged twice.  Returns ``None`` when the output holds no import lines.
    """
    rows = []
    for line in stderr.splitlines():
        if line.startswith(IMPORT_MARKER):
            break
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].split(":")[1].strip().isdigit():
            continue  # the header line
        field = parts[2][1:]
        name = field.strip()
        rows.append(
            (
                len(field) - len(field.lstrip(" ")),
                name,
                int(parts[0].split(":")[1]),
                int(parts[1]),
            )
        )
    if not rows:
        return None
    top = min(indent for indent, *_ in rows)
    # The benchmark's own modules (imported by child.py) are not third party.
    skip = set(sys.stdlib_module_names) | {"repro", "layers"}
    repro_us = sum(
        cum for indent, name, _s, cum in rows
        if indent == top and name.split(".")[0] == "repro"
    )
    third_us = sum(
        own for _i, name, own, _c in rows
        if name.split(".")[0] not in skip and not name.startswith("_")
    )
    return {
        "import.repro_s": repro_us / 1e6,
        "import.repro_modules": sum(
            1 for _i, name, *_ in rows if name.split(".")[0] == "repro"
        ),
        "import.third_party_s": third_us / 1e6,
    }
