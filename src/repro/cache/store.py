"""On-disk content-addressed artifact store.

Entries live at ``<root>/<kind>/<key[:2]>/<key>.npz``; each ``.npz`` holds
the artifact's arrays plus a ``__meta__`` JSON blob recording what produced
it and how long generation took (the basis of the "setup seconds saved"
telemetry).

Three properties the experiment pipeline relies on:

* **atomic writes** — payloads are serialized to a temp file in the same
  directory and ``os.replace``d into place, so readers never observe a
  half-written entry and concurrent writers of the same key are safe (last
  replace wins; both wrote identical bytes anyway, being content-addressed);
* **corruption tolerance** — a truncated, garbled, or schema-mismatched
  entry reads as a *miss* (and is evicted best-effort), never an exception:
  a broken cache degrades to regeneration;
* **bounded size** — an optional byte cap evicts least-recently-*used*
  entries (mtime order; reads bump mtime) after each write.

All failures to *write* (read-only filesystem, quota, permissions) are
swallowed and counted under ``cache.write_errors`` — caching is an
optimization, never a requirement.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import CacheError
from repro.obs.metrics import CounterSet, M
from repro.obs.span import get_tracer

_META_FIELD = "__meta__"
_VALID_KINDS = ("dataset", "partition", "symmetrized", "result")


class ArtifactCache:
    """Content-addressed ``.npz`` artifact cache rooted at a directory."""

    def __init__(
        self, root: str | os.PathLike, *, max_bytes: Optional[int] = None
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise CacheError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.counters = CounterSet()

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def path_for(self, kind: str, key: str) -> Path:
        """Entry path for ``(kind, key)``."""
        if kind not in _VALID_KINDS:
            raise CacheError(
                f"unknown artifact kind {kind!r}; expected one of {_VALID_KINDS}"
            )
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise CacheError(f"malformed cache key {key!r}")
        return self.root / kind / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #

    def get(
        self, kind: str, key: str
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        """Load an entry, or ``None`` on miss *or* any storage problem.

        Returns ``(arrays, meta)``.  Corrupt entries are evicted
        best-effort and read as misses.
        """
        path = self.path_for(kind, key)
        try:
            # Our own handle: np.load leaks the file it opens when the zip
            # directory turns out to be corrupt.
            with open(path, "rb") as fh, np.load(
                fh, allow_pickle=False
            ) as payload:
                if _META_FIELD not in payload.files:
                    raise ValueError("missing meta field")
                meta = json.loads(bytes(payload[_META_FIELD].tobytes()))
                arrays = {
                    name: payload[name]
                    for name in payload.files
                    if name != _META_FIELD
                }
        except FileNotFoundError:
            self.counters.add(f"cache.{kind}.misses")
            get_tracer().event("cache-get", kind=kind, outcome="miss")
            return None
        except Exception:
            # Truncated download, partial disk, zip corruption, bad JSON …
            # anything unreadable degrades to a miss.
            self.counters.add(f"cache.{kind}.corrupt")
            get_tracer().event("cache-get", kind=kind, outcome="corrupt")
            self._evict(path)
            return None
        self.counters.add(f"cache.{kind}.hits")
        self.counters.add(
            M.CACHE_SECONDS_SAVED, float(meta.get("gen_seconds", 0.0))
        )
        get_tracer().event(
            "cache-get",
            kind=kind,
            outcome="hit",
            seconds_saved=float(meta.get("gen_seconds", 0.0)),
        )
        self._touch(path)
        return arrays, meta

    def put(
        self,
        kind: str,
        key: str,
        arrays: Mapping[str, np.ndarray],
        *,
        meta: Optional[Mapping[str, Any]] = None,
        gen_seconds: float = 0.0,
    ) -> bool:
        """Store an entry atomically.  Returns False on storage failure."""
        path = self.path_for(kind, key)
        if _META_FIELD in arrays:
            raise CacheError(f"array name {_META_FIELD!r} is reserved")
        record = dict(meta or {})
        record["gen_seconds"] = float(gen_seconds)
        record["stored_at"] = time.time()
        blob = np.frombuffer(
            json.dumps(record, sort_keys=True).encode(), dtype=np.uint8
        )
        buf = io.BytesIO()
        np.savez(buf, **{_META_FIELD: blob}, **arrays)
        data = buf.getvalue()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".npz"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                self._evict(Path(tmp))
                raise
        except OSError:
            self.counters.add(f"cache.{kind}.write_errors")
            get_tracer().event("cache-put", kind=kind, outcome="error")
            return False
        self.counters.add(f"cache.{kind}.writes")
        get_tracer().event(
            "cache-put", kind=kind, outcome="write", bytes=len(data)
        )
        if self.max_bytes is not None:
            self._enforce_cap()
        return True

    # ------------------------------------------------------------------ #
    # Raw transfer (wire fetches, tar bundles)
    # ------------------------------------------------------------------ #

    def read_bytes(self, kind: str, key: str) -> Optional[bytes]:
        """Serialized entry bytes for shipping elsewhere, ``None`` on miss.

        The receiving side re-validates before installing (see
        :meth:`import_bytes`), so no full-read check happens here.
        """
        path = self.path_for(kind, key)
        try:
            return path.read_bytes()
        except OSError:
            return None

    def import_bytes(self, kind: str, key: str, data: bytes) -> bool:
        """Install a serialized entry produced by another cache, atomically.

        The payload is written to a temp file and checked with the same
        full-read validation as :meth:`verify` *before* the rename — a
        truncated or corrupted transfer (torn TCP stream, bad tar member)
        never becomes a cache entry.  Returns ``False`` on validation or
        storage failure.
        """
        path = self.path_for(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".npz"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                if not self._entry_ok(Path(tmp)):
                    self._evict(Path(tmp))
                    self.counters.add(f"cache.{kind}.corrupt")
                    get_tracer().event(
                        "cache-import", kind=kind, outcome="corrupt"
                    )
                    return False
                os.replace(tmp, path)
            except BaseException:
                self._evict(Path(tmp))
                raise
        except OSError:
            self.counters.add(f"cache.{kind}.write_errors")
            get_tracer().event("cache-import", kind=kind, outcome="error")
            return False
        self.counters.add(f"cache.{kind}.writes")
        get_tracer().event(
            "cache-import", kind=kind, outcome="write", bytes=len(data)
        )
        if self.max_bytes is not None:
            self._enforce_cap()
        return True

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """Entry counts and byte totals, overall and per kind."""
        per_kind: Dict[str, Dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        for kind in _VALID_KINDS:
            entries = 0
            size = 0
            for path in self._entries(kind):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            per_kind[kind] = {"entries": entries, "bytes": size}
            total_entries += entries
            total_bytes += size
        return {
            "root": str(self.root),
            "entries": total_entries,
            "bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "kinds": per_kind,
            "counters": self.counters.as_dict(),
        }

    def clear(self) -> int:
        """Delete every entry.  Returns the number removed."""
        removed = 0
        for kind in _VALID_KINDS:
            for path in self._entries(kind):
                if self._evict(path):
                    removed += 1
        return removed

    def verify(self, *, evict: bool = False) -> Dict[str, Any]:
        """Scan every entry for corruption; optionally evict the broken ones.

        Normal reads already treat corrupt entries as misses, but a sweep
        only discovers that at the moment it wanted the artifact.  This is
        the offline version — ``repro-cache verify`` after a machine crash
        or disk scare — and it reads *every* array of every entry in full
        (``np.load`` is lazy; a truncated member only fails when
        materialized), so a clean report means the cache is actually
        readable end to end.
        """
        scanned = 0
        corrupt: list = []
        evicted = 0
        for kind in _VALID_KINDS:
            for path in sorted(self._entries(kind)):
                scanned += 1
                if self._entry_ok(path):
                    continue
                corrupt.append({"kind": kind, "path": str(path)})
                self.counters.add(f"cache.{kind}.corrupt")
                if evict and self._evict(path):
                    evicted += 1
        get_tracer().event(
            "cache-verify",
            scanned=scanned,
            corrupt=len(corrupt),
            evicted=evicted,
        )
        return {
            "root": str(self.root),
            "scanned": scanned,
            "corrupt": corrupt,
            "evicted": evicted,
        }

    @staticmethod
    def _entry_ok(path: Path) -> bool:
        """True iff the entry parses *and* all its arrays fully read."""
        try:
            with open(path, "rb") as fh, np.load(
                fh, allow_pickle=False
            ) as payload:
                if _META_FIELD not in payload.files:
                    return False
                json.loads(bytes(payload[_META_FIELD].tobytes()))
                for name in payload.files:
                    np.asarray(payload[name])
        except Exception:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _entries(self, kind: str):
        base = self.root / kind
        if not base.is_dir():
            return
        yield from base.glob("*/*.npz")

    def _all_entries(self):
        for kind in _VALID_KINDS:
            yield from self._entries(kind)

    @staticmethod
    def _evict(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _enforce_cap(self) -> None:
        assert self.max_bytes is not None
        stamped = []
        total = 0
        for path in self._all_entries():
            try:
                st = path.stat()
            except OSError:
                continue
            stamped.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.max_bytes:
            return
        stamped.sort()  # oldest mtime first = least recently used
        for _, size, path in stamped:
            if total <= self.max_bytes:
                break
            if self._evict(path):
                total -= size
                self.counters.add(M.CACHE_EVICTIONS)
