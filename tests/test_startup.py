"""The start-up path: which modules each entry point loads, and when.

Package ``__init__`` modules are lazy tables, so a process imports only
what it uses.  Every check runs in a fresh interpreter (this one has
imported everything already) and compares module names, never timings.
See "Start-up path" in ``docs/performance.md``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: dump the interpreter's loaded modules as the last stdout line
_DUMP = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code: str) -> set:
    """Modules loaded once ``code`` has run in a fresh interpreter."""
    out = _fresh(textwrap.dedent(code) + "\n" + _DUMP)
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize(
    "module",
    ["repro", "repro.cli", "repro.experiments.worker", "repro.serve.cli"],
)
def test_entry_points_never_import_scipy(module):
    loaded = _loaded_after(f"import {module}")
    assert "scipy" not in loaded


def test_bare_import_loads_no_subsystem():
    loaded = _loaded_after("import repro")
    assert not {"asyncio", "tarfile", "repro.serve.server"} & loaded


def test_result_sha_does_not_load_the_daemon():
    loaded = _loaded_after(
        """
        import repro.cli

        assert repro.cli.main([
            "--dataset", "wikitalk-sim", "--tier", "tiny",
            "--kernel", "pagerank", "--max-iterations", "2",
            "--compare", "--result-sha", "--no-cache",
        ]) == 0
        """
    )
    assert not {
        "asyncio",
        "repro.serve.server",
        "repro.experiments.sweep",
    } & loaded


@pytest.mark.parametrize(
    "imports",
    [
        "import repro\nimport repro.partition.mirrors",
        "import repro.partition.mirrors",
        "from repro.partition import mirrors\nimport repro",
    ],
)
def test_partition_facade_survives_subpackage_import(imports):
    # The first import of a subpackage binds it on its parent, which
    # would shadow the facade function of the same name.
    out = _fresh(
        f"{imports}\nimport inspect\nprint(inspect.isfunction(repro.partition))"
    )
    assert out.split() == ["True"]


def test_forked_sweep_workers_import_nothing_after_the_fork(tmp_path):
    # Each forked worker appends the repro modules it imported since the
    # fork to the log after every task it runs.
    log = tmp_path / "imports.jsonl"
    _fresh(
        """
        import json, sys
        from repro.experiments import sweep, worker

        log = sys.argv[1]
        forked_worker, execute_task = worker._forked_worker, sweep._execute_task
        at_fork = set()

        def traced_worker(*args, **kwargs):
            at_fork.update(sys.modules)
            return forked_worker(*args, **kwargs)

        def traced_task(*args, **kwargs):
            outcome = execute_task(*args, **kwargs)
            if at_fork:
                new = sorted(
                    m for m in set(sys.modules) - at_fork if m.startswith("repro")
                )
                with open(log, "a") as fh:
                    fh.write(json.dumps(new) + "\\n")
            return outcome

        worker._forked_worker, sweep._execute_task = traced_worker, traced_task
        tasks = sweep.fig7_sweep_tasks(tier="tiny")[:4]
        assert len(sweep.run_sweep(tasks, jobs=2)) == 4
        """,
        str(log),
    )
    imported = [json.loads(line) for line in log.read_text().splitlines()]
    assert imported, "no forked worker ran a task"
    assert all(new == [] for new in imported), imported


def test_daemon_is_ready_with_its_execution_path_imported(tmp_path):
    out = _fresh(
        """
        import http.client, json, sys, threading, time
        from pathlib import Path

        import repro.serve.cli

        ready = Path(sys.argv[1])
        task = {"dataset": "wikitalk-sim", "kernel": "pagerank",
                "partitions": 4, "tier": "tiny", "max_iterations": 2}
        requests = [("/v1/run", task), ("/v1/compare", task),
                    ("/v1/sweep", {"tasks": [task], "jobs": 2})]
        seen = {"statuses": [], "new": []}

        def post(port, path, payload):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
            conn.request("POST", path, body=json.dumps(payload).encode())
            status = conn.getresponse().status
            conn.close()
            return status

        def client():
            while not (ready.exists() and ready.read_text().strip()):
                time.sleep(0.02)
            port = json.loads(ready.read_text())["port"]
            at_ready = set(sys.modules)
            try:
                for path, payload in requests:
                    seen["statuses"].append(post(port, path, payload))
                seen["new"] = sorted(
                    m for m in set(sys.modules) - at_ready
                    if m.startswith("repro")
                )
            finally:
                post(port, "/v1/shutdown", {})

        thread = threading.Thread(target=client)
        thread.start()
        assert repro.serve.cli.main(
            ["--port", "0", "--ready-file", str(ready)]
        ) == 0
        thread.join()
        print(json.dumps(seen))
        """,
        str(tmp_path / "ready.json"),
    )
    seen = json.loads(out.splitlines()[-1])
    assert seen == {"statuses": [200, 200, 200], "new": []}
