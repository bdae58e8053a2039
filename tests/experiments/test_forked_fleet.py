"""``ForkedFleet.stop`` kills and reaps every child it forked.

A clean sweep usually reaps each worker through ``lost()`` before the
coordinator reaches ``stop()``, so this checks ``stop()`` on its own: two
children blocked in their handshake against a socket that never answers.
"""

from __future__ import annotations

import os
import signal
import socket

from repro.experiments.worker import ForkedFleet


def test_stop_kills_and_reaps_blocked_children(live_children):
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(30)
        host, port = server.getsockname()[:2]
        fleet = ForkedFleet(2)
        fleet.start(host, port, "token", {})
        children = set(fleet.pids)
        conns = []
        try:
            assert len(children) == 2
            # Both connect and say hello, then wait for a welcome that
            # never comes.
            conns = [server.accept()[0] for _ in children]
            assert children <= live_children()
            fleet.stop()
            assert fleet.pids == set()
            assert not children & live_children()
        finally:
            for conn in conns:
                conn.close()
            for pid in children & live_children():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
