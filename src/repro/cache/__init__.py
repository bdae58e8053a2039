"""Content-addressed artifact cache for the experiment setup path.

Generating graphs, symmetrizing them, and running search partitioners
dominates sweep start-up — and all three are pure functions of (spec, seed,
scale).  This package persists them as ``.npz`` artifacts under a cache
directory so repeat runs skip straight to simulation.

Usage:

>>> from repro import cache
>>> cache.configure("/tmp/repro-cache")
>>> graph, spec = cache.load_dataset_cached("wikitalk-sim", tier="tiny", seed=7)

A process-global cache is configured with :func:`configure` (or the
``REPRO_CACHE_DIR`` environment variable) and consulted by the wrappers
whenever no explicit :class:`ArtifactCache` is passed.  With no directory
configured every wrapper transparently regenerates — caching is strictly
opt-in.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.cache.artifacts import (
    CachedPartitioner,
    load_dataset_cached,
    symmetrized_cached,
)
from repro.cache.bundle import export_bundle, import_bundle, resolve_digest
from repro.cache.keys import (
    cacheable_seed,
    canonical_key,
    dataset_key,
    graph_digest,
    partition_key,
    symmetrized_key,
)
from repro.cache.store import ArtifactCache

__all__ = [
    "ArtifactCache",
    "CachedPartitioner",
    "cacheable_seed",
    "canonical_key",
    "configure",
    "dataset_key",
    "disable",
    "export_bundle",
    "get_cache",
    "graph_digest",
    "import_bundle",
    "load_dataset_cached",
    "partition_key",
    "resolve_digest",
    "symmetrized_cached",
    "symmetrized_key",
]

#: Environment variable consulted when no cache has been configured.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default size cap when none is given: 2 GiB.
DEFAULT_MAX_BYTES = 2 << 30

_active: Optional[ArtifactCache] = None
_env_checked = False


def configure(
    cache_dir: str | os.PathLike,
    *,
    max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
) -> ArtifactCache:
    """Install (and return) the process-global artifact cache."""
    global _active, _env_checked
    _active = ArtifactCache(cache_dir, max_bytes=max_bytes)
    _env_checked = True
    return _active


def disable() -> None:
    """Remove the process-global cache; wrappers regenerate from scratch."""
    global _active, _env_checked
    _active = None
    _env_checked = True


def get_cache() -> Optional[ArtifactCache]:
    """The process-global cache, or ``None`` when caching is off.

    On first call, falls back to the ``REPRO_CACHE_DIR`` environment
    variable so ad-hoc scripts and CI jobs can opt in without code changes.
    """
    global _env_checked
    if not _env_checked:
        _env_checked = True
        env_dir = os.environ.get(CACHE_DIR_ENV)
        if env_dir:
            configure(env_dir)
    return _active
