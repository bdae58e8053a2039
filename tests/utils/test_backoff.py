"""Shared retry/backoff helpers: schedule shape and caps.

These helpers pace three very different consumers — the sweep's retry
rounds, the remote scheduler's per-task re-queues, and the serving
daemon's Retry-After hints — so the contract (pure function of attempt,
capped) is pinned here once.
"""

from __future__ import annotations

import pytest

from repro.utils.backoff import (
    BackoffPolicy,
    exponential_delay,
    retry_after_hint,
)


class TestExponentialDelay:
    def test_doubles_from_base(self):
        assert exponential_delay(0, base=0.25, cap=8.0) == 0.25
        assert exponential_delay(1, base=0.25, cap=8.0) == 0.5
        assert exponential_delay(2, base=0.25, cap=8.0) == 1.0
        assert exponential_delay(3, base=0.25, cap=8.0) == 2.0

    def test_caps(self):
        assert exponential_delay(10, base=0.25, cap=8.0) == 8.0
        assert exponential_delay(500, base=0.25, cap=8.0) == 8.0

    def test_huge_attempt_does_not_overflow(self):
        # 2**attempt would overflow floats long before this; the helper
        # short-circuits to the cap instead.
        assert exponential_delay(10**9, base=1.0, cap=30.0) == 30.0

    def test_zero_base_is_always_zero(self):
        assert exponential_delay(5, base=0.0, cap=8.0) == 0.0

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            exponential_delay(-1)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError, match="base"):
            exponential_delay(0, base=-0.1)


class TestBackoffPolicy:
    def test_default_matches_historical_sweep_schedule(self):
        # run_sweep's pre-refactor schedule: 0.25 * 2**round, capped at 8.
        policy = BackoffPolicy()
        assert [policy.delay(n) for n in range(7)] == [
            0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 8.0,
        ]

    def test_invalid_policy_rejected_at_construction(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(cap_s=-1.0)


class TestRetryAfterHint:
    def test_first_shed_hints_base(self):
        assert retry_after_hint(1) == 1.0

    def test_consecutive_sheds_escalate(self):
        assert [retry_after_hint(s) for s in (1, 2, 3, 4, 5)] == [
            1.0, 2.0, 4.0, 8.0, 8.0,
        ]

    def test_zero_streak_clamps_to_base(self):
        assert retry_after_hint(0) == 1.0

    def test_hint_is_always_positive(self):
        # serve admission promises retry_after_s > 0 to clients
        for streak in range(0, 20):
            assert retry_after_hint(streak) > 0
