"""Chrome trace-event schema and a dependency-free validator.

:data:`CHROME_TRACE_SCHEMA` documents the subset of the Chrome
trace-event format our exporter emits, phrased as JSON Schema.  Because
the toolchain deliberately avoids a ``jsonschema`` dependency,
:func:`validate_chrome_trace` enforces the same constraints by hand; CI's
obs-smoke job and the exporter tests both call it.

Usage::

    python -m repro.obs.schema run.trace.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

#: JSON-Schema rendering of what write_chrome_trace() emits.
CHROME_TRACE_SCHEMA: Dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "displayTimeUnit": {"enum": ["ms", "ns"]},
        "otherData": {"type": "object"},
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "cat", "ph", "ts", "pid", "tid", "args"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "cat": {"type": "string", "minLength": 1},
                    "ph": {"enum": ["X", "i"]},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "exclusiveMinimum": 0},
                    "pid": {"type": "integer", "minimum": 1},
                    "tid": {"type": "integer", "minimum": 1},
                    "s": {"enum": ["t", "p", "g"]},
                    "args": {"type": "object"},
                },
            },
        },
    },
}


def validate_chrome_trace(
    doc_or_path: Union[str, Path, Mapping[str, Any]],
) -> int:
    """Validate a Chrome trace document; returns the event count.

    Raises :class:`ValueError` with a precise message on the first
    violation.  Accepts a parsed dict or a path to a JSON file.
    """
    if isinstance(doc_or_path, (str, Path)):
        doc = json.loads(Path(doc_or_path).read_text())
    else:
        doc = doc_or_path
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    if "displayTimeUnit" in doc and doc["displayTimeUnit"] not in ("ms", "ns"):
        raise ValueError(f"bad displayTimeUnit {doc['displayTimeUnit']!r}")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        for key in ("name", "cat", "ph", "ts", "pid", "tid", "args"):
            if key not in event:
                raise ValueError(f"{where} missing required key {key!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            raise ValueError(f"{where}.name must be a non-empty string")
        if not isinstance(event["cat"], str) or not event["cat"]:
            raise ValueError(f"{where}.cat must be a non-empty string")
        if event["ph"] not in ("X", "i"):
            raise ValueError(f"{where}.ph must be 'X' or 'i', got {event['ph']!r}")
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            raise ValueError(f"{where}.ts must be a non-negative number")
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur <= 0:
                raise ValueError(f"{where}.dur must be a positive number")
        else:
            if event.get("s") not in ("t", "p", "g"):
                raise ValueError(f"{where}.s must be one of 't'/'p'/'g'")
        for key in ("pid", "tid"):
            if not isinstance(event[key], int) or event[key] < 1:
                raise ValueError(f"{where}.{key} must be a positive integer")
        if not isinstance(event["args"], dict):
            raise ValueError(f"{where}.args must be an object")
    return len(events)


def _main(argv=None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="Validate a Chrome trace file emitted by repro.obs."
    )
    parser.add_argument("trace", help="path to the trace JSON file")
    args = parser.parse_args(argv)
    try:
        count = validate_chrome_trace(args.trace)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    print(f"{args.trace}: {count} events OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(_main())
