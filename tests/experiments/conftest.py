"""Shared fixtures for the sweep tests."""

from __future__ import annotations

import os
from pathlib import Path

import pytest


def _children() -> set:
    """Processes whose parent is this one, live or waiting to be reaped."""
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # the state and ppid fields follow the parenthesised name
            stat = (entry / "stat").read_text()
            _state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == os.getpid():
            found.add(int(entry.name))
    return found


@pytest.fixture
def live_children():
    """A callable listing this process's children, from Linux ``/proc``."""
    if not os.path.isdir("/proc"):
        pytest.skip("needs Linux /proc")
    return _children
