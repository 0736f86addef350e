"""Tests for the server-side download quota."""

import pytest

from repro.net.ratelimit import QuotaLimiter


class TestQuotaLimiter:
    def test_exhausts(self):
        quota = QuotaLimiter(2)
        assert quota.try_acquire()
        assert quota.try_acquire()
        assert not quota.try_acquire()
        assert not quota.try_acquire()  # stays refused forever

    def test_counters(self):
        quota = QuotaLimiter(3)
        quota.try_acquire()
        assert quota.used == 1
        assert quota.remaining == 2

    def test_zero_quota(self):
        assert not QuotaLimiter(0).try_acquire()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QuotaLimiter(-1)
