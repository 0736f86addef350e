"""Unit tests for identity pools and the credential manager."""

import pytest

from repro.net.credentials import CredentialManager
from repro.net.identity import IdentityPolicy, IdentityPool


class TestIdentityPolicy:
    def test_defaults(self):
        policy = IdentityPolicy()
        assert policy.size == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            IdentityPolicy(size=0)
        with pytest.raises(ValueError):
            IdentityPolicy(cooldown=-1.0)


class TestDerivation:
    def test_same_seed_same_identities(self):
        a = IdentityPool("tencent", IdentityPolicy(size=6), seed=42)
        b = IdentityPool("tencent", IdentityPolicy(size=6), seed=42)
        assert [a.checkout(0.0)[0] for _ in range(6)] == [
            b.checkout(0.0)[0] for _ in range(6)
        ]

    def test_markets_get_distinct_identities(self):
        a = IdentityPool("tencent", IdentityPolicy(size=4), seed=42)
        b = IdentityPool("baidu", IdentityPolicy(size=4), seed=42)
        assert a.current != b.current

    def test_seed_changes_identities(self):
        a = IdentityPool("m", IdentityPolicy(size=4), seed=1)
        b = IdentityPool("m", IdentityPolicy(size=4), seed=2)
        assert a.current != b.current

    def test_pool_identities_are_unique(self):
        pool = IdentityPool("m", IdentityPolicy(size=8), seed=0)
        seen = set()
        for index in range(8):
            pool._current = index
            seen.add(pool.current)
        assert len(seen) == 8

    def test_headers_shape(self):
        headers = IdentityPool("m", IdentityPolicy(), seed=0).current.headers()
        assert set(headers) == {"x-client-ip", "user-agent"}
        assert headers["x-client-ip"].startswith("10.")


class TestOnBanRotation:
    def make_pool(self, size=3):
        return IdentityPool("m", IdentityPolicy(size=size, cooldown=0.05), seed=7)

    def test_stays_put_without_bans(self):
        pool = self.make_pool()
        first = pool.current
        for _ in range(200):
            identity, rotated = pool.checkout(0.0)
            assert identity == first and not rotated

    def test_rotate_after_ban(self):
        pool = self.make_pool()
        banned = pool.current
        pool.ban_current(0.0, retry_after=0.5)
        assert pool.rotate_to_available(0.0)
        assert pool.current != banned
        assert pool.rotations == 1
        assert pool.bans_recorded == 1

    def test_cooldown_floors_the_ban_window(self):
        pool = self.make_pool()
        pool.ban_current(0.0, retry_after=0.001)  # shorter than cooldown
        pool.ban_current(0.0, retry_after=None)
        assert pool.earliest_release(0.0) is None  # two slots still free
        assert pool._banned_until[0] == pytest.approx(0.05)

    def test_all_banned_reports_earliest_release(self):
        pool = self.make_pool(size=2)
        pool.ban_current(0.0, retry_after=0.3)
        pool.rotate_to_available(0.0)
        pool.ban_current(0.0, retry_after=0.2)
        assert not pool.rotate_to_available(0.0)
        assert pool.earliest_release(0.0) == pytest.approx(0.2)
        # After the shortest window the pool frees up again — and the
        # freed slot is the current one, so no rotation is needed.
        assert pool.earliest_release(0.2) is None
        assert not pool.rotate_to_available(0.2)
        assert pool._banned_until[pool.current_index] <= 0.2

    def test_checkout_dodges_a_mid_ban_current(self):
        pool = self.make_pool()
        pool.ban_current(0.0, retry_after=1.0)
        identity, rotated = pool.checkout(0.5)
        assert rotated
        assert pool._banned_until[pool.current_index] <= 0.5


class TestPoolStateRoundTrip:
    def test_export_restore(self):
        pool = IdentityPool("m", IdentityPolicy(size=3), seed=9)
        pool.checkout(0.0)
        pool.ban_current(0.0, retry_after=0.4)
        pool.rotate_to_available(0.0)
        state = pool.export_state()

        clone = IdentityPool("m", IdentityPolicy(size=3), seed=9)
        clone.restore_state(state)
        assert clone.export_state() == state
        assert clone.current == pool.current
        assert clone.earliest_release(0.0) == pool.earliest_release(0.0)

    def test_restore_ignores_a_journaled_checkout_count(self):
        # Journals written while round-robin rotation existed carry a
        # ``checkouts`` count in the pool state.
        pool = IdentityPool("m", IdentityPolicy(size=3), seed=9)
        pool.ban_current(0.0, retry_after=0.4)
        pool.rotate_to_available(0.0)
        state = pool.export_state()
        assert "checkouts" not in state

        clone = IdentityPool("m", IdentityPolicy(size=3), seed=9)
        clone.restore_state({**state, "checkouts": 57})
        assert clone.export_state() == state

    def test_restore_pads_on_size_change(self):
        old = IdentityPool("m", IdentityPolicy(size=2), seed=9)
        old.ban_current(0.0, retry_after=1.0)
        grown = IdentityPool("m", IdentityPolicy(size=4), seed=9)
        grown.restore_state(old.export_state())
        assert len(grown._banned_until) == 4
        assert grown.rotate_to_available(0.0)


class TestCredentialManager:
    def test_no_token_initially(self):
        creds = CredentialManager("m")
        assert creds.token_if_valid(0.0) is None
        assert not creds.ever_logged_in

    def test_install_and_validity(self):
        creds = CredentialManager("m", refresh_margin=0.1)
        creds.install("tok", ttl=2.0, now=0.0)
        assert creds.ever_logged_in
        assert creds.logins == 1
        assert creds.token_if_valid(0.0) == "tok"
        # Proactive refresh: the token reads invalid inside the margin
        # (10% of ttl = 0.2 days before true expiry).
        assert creds.token_if_valid(1.79) == "tok"
        assert creds.token_if_valid(1.8) is None
        assert creds.token_if_valid(5.0) is None

    def test_invalidate(self):
        creds = CredentialManager("m")
        creds.install("tok", ttl=10.0, now=0.0)
        creds.invalidate()
        assert creds.token_if_valid(0.1) is None
        assert creds.ever_logged_in  # history survives invalidation

    def test_export_restore(self):
        creds = CredentialManager("m")
        creds.install("tok-a", ttl=3.0, now=1.0)
        creds.install("tok-b", ttl=3.0, now=2.0)
        clone = CredentialManager("m")
        clone.restore_state(creds.export_state())
        assert clone.export_state() == creds.export_state()
        assert clone.token_if_valid(2.5) == "tok-b"
        assert clone.logins == 2
