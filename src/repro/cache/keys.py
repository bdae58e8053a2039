"""Content-addressed cache keys.

Every cached artifact is addressed by the sha256 of a *canonical JSON*
rendering of everything that determines its content: dataset spec + seed +
scale for generated graphs, graph digest + partitioner name + parameters +
seed for assignments, and so on.  Two processes that would generate the
same artifact therefore compute the same key, with no coordination.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional

import numpy as np

from repro.errors import CacheError
from repro.graph.csr import CSRGraph

#: Bump when the on-disk layout of any artifact changes; old entries then
#: simply miss instead of deserializing garbage.
#: v2: graph digests include the CSR index dtype (narrow-index graphs).
SCHEMA_VERSION = 2


def cacheable_seed(seed: Any) -> Optional[int]:
    """Normalize ``seed`` for keying, or ``None`` when uncacheable.

    Only plain integers (and ``None`` is *not* cacheable: it means fresh
    entropy) key a deterministic artifact.  Generators and seed sequences
    are stateful — caching them would return stale results.
    """
    if isinstance(seed, bool):
        return None
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return None


def canonical_key(kind: str, payload: Mapping[str, Any]) -> str:
    """sha256 hex key for ``payload`` under the ``kind`` namespace.

    The payload must be JSON-serializable with sorted keys; anything else
    is a programming error and raises :class:`CacheError`.
    """
    try:
        blob = json.dumps(
            {"schema": SCHEMA_VERSION, "kind": kind, **payload},
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise CacheError(f"unserializable cache key payload: {exc}") from exc
    return hashlib.sha256(blob.encode()).hexdigest()


def graph_digest(graph: CSRGraph) -> str:
    """Content digest of a CSR graph (structure + weights + index dtype).

    Delegates to :attr:`CSRGraph.digest`, which caches the hash on the
    graph — sweeps re-key the same graph for every (partitioner, parts)
    combination.
    """
    return graph.digest


def dataset_key(
    name: str, tier: str, seed: int, scale_shift: int
) -> str:
    """Key for a generated paper-dataset stand-in graph."""
    return canonical_key(
        "dataset",
        {"name": name, "tier": tier, "seed": seed, "scale_shift": scale_shift},
    )


def partition_key(
    graph_sha: str,
    partitioner: str,
    params: Mapping[str, Any],
    num_parts: int,
    seed: int,
) -> str:
    """Key for a partition assignment of one concrete graph.

    ``partitioner`` names the implementation (its module-qualified class
    name), so a subclass that reuses a registry name gets its own entry.
    """
    return canonical_key(
        "partition",
        {
            "graph": graph_sha,
            "partitioner": partitioner,
            "params": dict(params),
            "num_parts": num_parts,
            "seed": seed,
        },
    )


def symmetrized_key(graph_sha: str) -> str:
    """Key for the deduplicated undirected closure of one concrete graph."""
    return canonical_key("symmetrized", {"graph": graph_sha})


def result_key(request_digest: str) -> str:
    """Key for a served analytics result (the ``result`` artifact kind).

    ``request_digest`` is the canonical digest of the serving request
    (:meth:`repro.api.RunSpec.digest` for single runs) — itself already
    content-addressed, so this just namespaces it under the cache schema.
    """
    return canonical_key("result", {"request": request_digest})
