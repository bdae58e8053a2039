"""The ``repro-serve`` daemon as a real subprocess: ready handshake,
signal-driven graceful shutdown, and sha-identity with the ``repro-run``
CLI path."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from _http import http_get, http_post

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _start_daemon(tmp_path, *extra):
    ready = tmp_path / "ready.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0", "--ready-file", str(ready), *extra,
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            record = json.loads(ready.read_text())
            return proc, record["port"]
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon exited early: {proc.communicate()[1]}"
            )
        time.sleep(0.02)
    proc.kill()
    raise AssertionError("daemon never wrote its ready file")


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_triggers_graceful_shutdown(tmp_path, signum):
    proc, port = _start_daemon(tmp_path)
    try:
        status, _h, body = http_get(port, "/v1/healthz")
        assert status == 200 and json.loads(body)["ok"] is True
        status, _h, _b = http_post(
            port,
            "/v1/run",
            {"dataset": "wikitalk-sim", "kernel": "pagerank",
             "tier": "tiny", "max_iterations": 4},
        )
        assert status == 200
        proc.send_signal(signum)
        _stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "stopped cleanly" in stderr


def test_remote_shutdown_endpoint(tmp_path):
    proc, port = _start_daemon(tmp_path)
    try:
        status, _h, body = http_post(port, "/v1/shutdown")
        assert status == 200 and json.loads(body)["status"] == "stopping"
        _stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr


def test_served_sha_matches_repro_run_cli(tmp_path):
    payload = {
        "dataset": "wikitalk-sim",
        "kernel": "pagerank",
        "tier": "tiny",
        "max_iterations": 4,
    }
    proc, port = _start_daemon(tmp_path)
    try:
        status, _h, body = http_post(port, "/v1/run", payload)
        assert status == 200
        served_sha = json.loads(body)["result_sha256"]
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    cli = subprocess.run(
        [
            sys.executable, "-m", "repro.cli",
            "--dataset", payload["dataset"],
            "--kernel", payload["kernel"],
            "--tier", payload["tier"],
            "--max-iterations", str(payload["max_iterations"]),
            "--quiet", "--result-sha",
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert cli.returncode == 0, cli.stderr
    match = re.search(r"result sha256: ([0-9a-f]{64})", cli.stdout)
    assert match, cli.stdout
    assert match.group(1) == served_sha
