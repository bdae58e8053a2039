"""Typed artifact (de)serialization and cached setup-path wrappers.

Three setup artifact kinds round-trip through the store as ``.npz``
payloads:

* **dataset** — a generated :class:`~repro.graph.csr.CSRGraph` keyed by
  ``(name, tier, seed, scale_shift)``;
* **partition** — a :class:`~repro.partition.base.PartitionAssignment`
  keyed by the *content digest* of the graph plus the partitioner's
  module-qualified class name, parameters, part count, and seed;
* **symmetrized** — a graph's deduplicated undirected closure, keyed by
  the input graph's content digest.

The wrappers (:func:`load_dataset_cached`, :class:`CachedPartitioner`,
:func:`symmetrized_cached`) fall back to regeneration on any miss.  The
first two also skip the cache entirely for non-integer seeds or when no
cache is configured, so they are drop-in replacements for the functions
they wrap.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.cache.keys import (
    cacheable_seed,
    dataset_key,
    graph_digest,
    partition_key,
    symmetrized_key,
)
from repro.cache.store import ArtifactCache
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DatasetSpec, get_spec, load_dataset
from repro.partition.base import PartitionAssignment, Partitioner
from repro.utils.rng import SeedLike


# ---------------------------------------------------------------------- #
# Array codecs
# ---------------------------------------------------------------------- #


def graph_to_arrays(graph: CSRGraph) -> Dict[str, np.ndarray]:
    arrays = {"indptr": graph.indptr, "indices": graph.indices}
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    return arrays


def graph_from_arrays(arrays: Mapping[str, np.ndarray]) -> CSRGraph:
    # Preserve the stored index dtype: re-narrowing a deliberately wide
    # graph on load would change its digest and orphan derived artifacts.
    return CSRGraph(
        arrays["indptr"],
        arrays["indices"],
        arrays.get("weights"),
        index_dtype=np.asarray(arrays["indices"]).dtype,
    )


def assignment_to_arrays(assignment: PartitionAssignment) -> Dict[str, np.ndarray]:
    return {
        "parts": assignment.parts,
        "num_parts": np.int64(assignment.num_parts),
    }


def assignment_from_arrays(arrays: Mapping[str, np.ndarray]) -> PartitionAssignment:
    return PartitionAssignment(arrays["parts"], int(arrays["num_parts"]))


def partitioner_params(partitioner: Partitioner) -> Dict[str, Any]:
    """JSON-able constructor parameters of a partitioner instance.

    All registry partitioners keep their configuration as plain public
    instance attributes, which is exactly what must key the cache: two
    instances with equal params produce equal output for equal seeds.
    """
    return {
        k: v
        for k, v in sorted(vars(partitioner).items())
        if not k.startswith("_")
    }


# ---------------------------------------------------------------------- #
# Cached wrappers
# ---------------------------------------------------------------------- #


def load_dataset_cached(
    name: str,
    *,
    tier: str = "small",
    seed: SeedLike = 7,
    scale_shift: int = 0,
    cache: Optional[ArtifactCache] = None,
) -> Tuple[CSRGraph, DatasetSpec]:
    """:func:`repro.graph.datasets.load_dataset` through the artifact cache.

    Uncacheable seeds (generators, ``None``) bypass the cache entirely.
    """
    if cache is None:
        from repro.cache import get_cache

        cache = get_cache()
    key_seed = cacheable_seed(seed)
    if cache is None or key_seed is None:
        return load_dataset(name, tier=tier, seed=seed, scale_shift=scale_shift)
    spec = get_spec(name)
    key = dataset_key(name, tier, key_seed, scale_shift)
    entry = cache.get("dataset", key)
    if entry is not None:
        arrays, _ = entry
        return graph_from_arrays(arrays), spec
    start = time.perf_counter()
    graph, spec = load_dataset(name, tier=tier, seed=seed, scale_shift=scale_shift)
    elapsed = time.perf_counter() - start
    cache.put(
        "dataset",
        key,
        graph_to_arrays(graph),
        meta={"name": name, "tier": tier, "seed": key_seed,
              "scale_shift": scale_shift, "n": graph.num_vertices,
              "m": graph.num_edges},
        gen_seconds=elapsed,
    )
    return graph, spec


class CachedPartitioner(Partitioner):
    """Wrap any partitioner with content-addressed result caching.

    The key covers the graph's full content digest, the inner partitioner's
    class and parameters, the part count, and the seed — so a hit
    is guaranteed to be the byte-identical assignment the inner partitioner
    would produce.  Misses (and uncacheable seeds) delegate to the inner
    partitioner and store the result.
    """

    def __init__(
        self, inner: Partitioner, *, cache: Optional[ArtifactCache] = None
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self._cache = cache

    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        cache = self._cache
        if cache is None:
            from repro.cache import get_cache

            cache = get_cache()
        key_seed = cacheable_seed(seed)
        if cache is None or key_seed is None:
            return self.inner.partition(graph, num_parts, seed=seed)
        inner_cls = type(self.inner)
        key = partition_key(
            graph_digest(graph),
            f"{inner_cls.__module__}.{inner_cls.__qualname__}",
            partitioner_params(self.inner),
            num_parts,
            key_seed,
        )
        entry = cache.get("partition", key)
        if entry is not None:
            arrays, _ = entry
            return assignment_from_arrays(arrays)
        start = time.perf_counter()
        assignment = self.inner.partition(graph, num_parts, seed=seed)
        elapsed = time.perf_counter() - start
        cache.put(
            "partition",
            key,
            assignment_to_arrays(assignment),
            meta={"partitioner": self.inner.name, "num_parts": num_parts,
                  "seed": key_seed, "n": graph.num_vertices},
            gen_seconds=elapsed,
        )
        return assignment

    def __repr__(self) -> str:
        return f"CachedPartitioner({self.inner!r})"


def symmetrized_cached(graph: CSRGraph, cache: ArtifactCache) -> CSRGraph:
    """:meth:`CSRGraph.symmetrized` through ``cache``.

    A hit seeds ``graph``'s closure memo, so one graph object pays for its
    digest and the read once; a graph that already holds its closure
    touches no cache entry.
    """
    if graph._symmetrized_cache is not None:
        return graph._symmetrized_cache
    key = symmetrized_key(graph_digest(graph))
    entry = cache.get("symmetrized", key)
    if entry is not None:
        arrays, _ = entry
        graph._symmetrized_cache = graph_from_arrays(arrays)
        return graph._symmetrized_cache
    start = time.perf_counter()
    closure = graph.symmetrized()
    elapsed = time.perf_counter() - start
    cache.put(
        "symmetrized",
        key,
        graph_to_arrays(closure),
        meta={"n": closure.num_vertices, "m": closure.num_edges},
        gen_seconds=elapsed,
    )
    return closure
