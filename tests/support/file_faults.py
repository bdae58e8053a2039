"""File faults: torn writes and flipped bytes.

These mutilate on-disk state the way crashed writers and bad disks do, for
the journal and artifact-cache recovery tests.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.errors import ExperimentError


def tear_tail(
    path: str | os.PathLike,
    nbytes: Optional[int] = None,
    *,
    seed: Optional[int] = None,
) -> int:
    """Truncate ``path`` by ``nbytes`` — a torn final write.

    With ``nbytes=None`` a seeded PCG stream picks 1..min(64, size) bytes
    to tear off, which lands inside the final record of any JSONL journal.
    Returns the number of bytes removed (0 for an empty file).
    """
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        return 0
    if nbytes is None:
        rng = np.random.default_rng(0 if seed is None else seed)
        nbytes = int(rng.integers(1, min(64, size) + 1))
    nbytes = min(int(nbytes), size)
    with open(path, "r+b") as fh:
        fh.truncate(size - nbytes)
    return nbytes


def flip_bytes(
    path: str | os.PathLike, *, seed: int, count: int = 8
) -> Tuple[int, ...]:
    """XOR-corrupt ``count`` seeded byte positions of ``path`` in place.

    Models silent media corruption (as opposed to the clean truncation of
    :func:`tear_tail`).  Returns the corrupted offsets, sorted.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        return ()
    rng = np.random.default_rng(seed)
    offsets = sorted(
        int(i) for i in rng.choice(len(data), size=min(count, len(data)), replace=False)
    )
    for off in offsets:
        data[off] ^= 0xFF
    path.write_bytes(bytes(data))
    return tuple(offsets)


def corrupt_artifact(
    cache_root: str | os.PathLike,
    *,
    seed: int,
    mode: str = "truncate",
) -> Optional[Path]:
    """Deterministically corrupt one ``.npz`` entry of an artifact cache.

    Picks the victim by seeded index over the sorted entry list (stable
    across runs against the same cache contents), then either truncates it
    to half size (``mode="truncate"``) or flips bytes (``mode="flip"``).
    Returns the corrupted path, or ``None`` when the cache is empty —
    ``repro-cache verify`` must subsequently report exactly this entry.
    """
    if mode not in ("truncate", "flip"):
        raise ExperimentError(f"unknown corruption mode {mode!r}")
    root = Path(cache_root)
    entries = sorted(p for p in root.glob("*/*/*.npz"))
    if not entries:
        return None
    rng = np.random.default_rng(seed)
    victim = entries[int(rng.integers(0, len(entries)))]
    if mode == "truncate":
        size = victim.stat().st_size
        with open(victim, "r+b") as fh:
            fh.truncate(size // 2)
    else:
        flip_bytes(victim, seed=seed)
    return victim
