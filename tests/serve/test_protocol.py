"""Request parsing and canonical response encoding."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigError, Overloaded, QuotaExceeded
from repro.serve.protocol import (
    canonical_bytes,
    error_payload,
    parse_request,
    result_sha256,
)


def test_parse_minimal_run():
    request = parse_request(
        "run", {"dataset": "wikitalk-sim", "kernel": "pagerank"}
    )
    assert request.kind == "run"
    assert request.tenant == "default"
    assert request.priority == 5
    assert request.spec.dataset == "wikitalk-sim"


def test_parse_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown request kind"):
        parse_request("meditate", {})


def test_parse_rejects_non_object_body():
    with pytest.raises(ConfigError, match="JSON object"):
        parse_request("run", [1, 2, 3])


def test_parse_rejects_unknown_field():
    # "backend" was a RunSpec field once; a client still sending it must
    # get a typed 400, not a silently different workload.
    for field in ("kernle", "backend"):
        with pytest.raises(ConfigError, match="unknown RunSpec field"):
            parse_request(
                "run",
                {"dataset": "wikitalk-sim", "kernel": "pagerank", field: "x"},
            )


def test_parse_rejects_unknown_dataset_and_kernel():
    with pytest.raises(ConfigError, match="unknown dataset"):
        parse_request("run", {"dataset": "nope", "kernel": "pagerank"})
    with pytest.raises(ConfigError, match="unknown kernel"):
        parse_request("run", {"dataset": "wikitalk-sim", "kernel": "nope"})


def test_parse_rejects_bad_envelope():
    base = {"dataset": "wikitalk-sim", "kernel": "pagerank"}
    with pytest.raises(ConfigError, match="tenant"):
        parse_request("run", {**base, "tenant": ""})
    with pytest.raises(ConfigError, match="priority"):
        parse_request("run", {**base, "priority": "high"})
    with pytest.raises(ConfigError, match="priority"):
        parse_request("run", {**base, "priority": 11})


def test_parse_sweep():
    request = parse_request(
        "sweep",
        {
            "tasks": [
                {"dataset": "wikitalk-sim", "kernel": "cc", "partitions": 4}
            ],
            "jobs": 2,
        },
    )
    assert request.kind == "sweep"
    assert len(request.tasks) == 1
    assert request.jobs == 2


def test_parse_sweep_rejects_empty_and_malformed_tasks():
    with pytest.raises(ConfigError, match="at least one task"):
        parse_request("sweep", {"tasks": []})
    with pytest.raises(ConfigError, match="'tasks' list"):
        parse_request("sweep", {})
    with pytest.raises(ConfigError, match="missing required field"):
        parse_request("sweep", {"tasks": [{"dataset": "wikitalk-sim"}]})
    for field in ("bogus", "backend"):
        with pytest.raises(ConfigError, match="unknown sweep task field"):
            parse_request(
                "sweep",
                {
                    "tasks": [
                        {
                            "dataset": "wikitalk-sim",
                            "kernel": "cc",
                            "partitions": 4,
                            field: 1,
                        }
                    ]
                },
            )


def test_parse_wraps_bad_types_as_config_error():
    """A wrong-typed field becomes a 400-class error, not a crash."""
    with pytest.raises(ConfigError):
        parse_request(
            "sweep",
            {
                "tasks": [
                    {"dataset": "wikitalk-sim", "kernel": "cc", "partitions": 4}
                ],
                "jobs": "many",
            },
        )


def test_parse_run_policy_string_is_wire_format_not_deprecated():
    """The request body's ``policy`` string is the wire spelling of a
    PolicySpec: the parser converts it, although ``RunSpec`` itself
    rejects a bare string."""
    from repro.api import PolicySpec

    request = parse_request(
        "run",
        {
            "dataset": "wikitalk-sim",
            "kernel": "pagerank",
            "policy": "threshold:min_avg_degree=2.0",
        },
    )
    assert request.spec.policy == PolicySpec(
        "threshold", {"min_avg_degree": 2.0}
    )


def test_parse_run_rejects_unknown_policy():
    with pytest.raises(ConfigError, match="unknown offload policy"):
        parse_request(
            "run",
            {
                "dataset": "wikitalk-sim",
                "kernel": "pagerank",
                "policy": "psychic",
            },
        )


def test_parse_sweep_task_policy():
    from repro.api import PolicySpec

    request = parse_request(
        "sweep",
        {
            "tasks": [
                {
                    "dataset": "wikitalk-sim",
                    "kernel": "cc",
                    "partitions": 4,
                    "policy": "adaptive",
                }
            ]
        },
    )
    assert request.tasks[0].policy == PolicySpec("adaptive")


def test_canonical_bytes_is_order_independent():
    a = canonical_bytes({"b": 1, "a": {"y": 2, "x": 3}})
    b = canonical_bytes({"a": {"x": 3, "y": 2}, "b": 1})
    assert a == b
    assert a.endswith(b"\n")
    assert json.loads(a) == {"a": {"x": 3, "y": 2}, "b": 1}


def test_result_sha256_depends_on_bits():
    values = np.arange(8, dtype=np.float64)
    assert result_sha256(values) == result_sha256(values.copy())
    tweaked = values.copy()
    tweaked[3] += 1e-12
    assert result_sha256(values) != result_sha256(tweaked)
    # sliced/non-contiguous views hash the same logical content
    padded = np.zeros(16, dtype=np.float64)
    padded[::2] = values
    assert result_sha256(padded[::2]) == result_sha256(values)


def test_error_payload_carries_typed_fields():
    shed = error_payload(Overloaded("full", retry_after_s=2.5))
    assert shed["ok"] is False
    assert shed["error"]["type"] == "Overloaded"
    assert shed["error"]["retry_after_s"] == 2.5

    quota = error_payload(QuotaExceeded("cap", tenant="team-a"))
    assert quota["error"]["type"] == "QuotaExceeded"
    assert quota["error"]["tenant"] == "team-a"
