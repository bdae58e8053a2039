"""A timing-free view of a span batch, for comparing two executions."""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple


def structural_view(
    batch: Sequence[Mapping[str, Any]],
) -> Tuple[Tuple[Any, ...], ...]:
    """Canonical timing-free view of a span batch, for set equality.

    Each span becomes ``(name-path-from-root, category, sorted-attrs)``;
    the result is sorted.  Two executions of the same workload — serial
    vs parallel sweep, say — must produce equal views even though ids,
    timestamps, and completion order all differ.
    """
    by_id = {d["id"]: d for d in batch}

    def path(d: Mapping[str, Any]) -> Tuple[str, ...]:
        names: List[str] = []
        cur: Optional[Mapping[str, Any]] = d
        while cur is not None:
            names.append(cur["name"])
            parent = cur.get("parent")
            cur = by_id.get(parent) if parent is not None else None
        return tuple(reversed(names))

    rows = []
    for d in batch:
        attrs = tuple(sorted((k, repr(v)) for k, v in d.get("attrs", {}).items()))
        rows.append((path(d), d.get("category", ""), attrs))
    return tuple(sorted(rows))
