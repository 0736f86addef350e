"""Client identity pools: proxy IP / user-agent rotation.

Real crawlers survive anti-bot bans by rotating through proxy exits and
user-agent strings (PyStoreCrawler ships exactly this middleware).  The
simulated equivalent is an :class:`IdentityPool` of ``(ip, user_agent)``
pairs the :class:`~repro.net.client.HttpClient` stamps onto every
request; hostile markets key their velocity counters on that pair, so
rotating to a fresh identity resets the market's view of the client.

Determinism contract (see DESIGN.md): the pool's identities are derived
from :func:`~repro.util.rng.stable_hash64` substreams keyed by
``(seed, market_id, slot_index)`` — never by worker or shard id — so
the same campaign config yields the same identities at any worker
count.  Rotation decisions depend only on the request stream and the
lane clock, both of which are deterministic per lane, and the pool's
mutable state (current slot, per-identity ban windows, counters) joins
the lane checkpoint so kill-and-resume lands on the identical identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.util.rng import stable_hash64

__all__ = ["Identity", "IdentityPolicy", "IdentityPool"]

#: UA templates the pool draws from (version digits vary per identity).
_UA_TEMPLATES = (
    "Mozilla/5.0 (Linux; Android {a}.{b}) AppleWebKit/537.36 Chrome/{c}.0 Mobile",
    "Dalvik/2.1.0 (Linux; U; Android {a}.{b}; SM-G9{c:02d}0 Build/QP1A)",
    "okhttp/{a}.{b}.{c}",
    "MarketClient/{a}.{b}.{c} (Android)",
)


@dataclass(frozen=True)
class Identity:
    """One rotatable client identity (proxy exit + UA string)."""

    ip: str
    user_agent: str

    def headers(self) -> Dict[str, str]:
        return {"x-client-ip": self.ip, "user-agent": self.user_agent}


@dataclass(frozen=True)
class IdentityPolicy:
    """How a lane's identity pool rotates.

    A lane rotates only when its current identity gets banned.
    ``cooldown`` is the minimum sim-day rest a banned identity serves
    even when the server's ban window is shorter.
    """

    size: int = 4
    cooldown: float = 0.05

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"identity pool size must be >= 1, got {self.size}")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


def _derive_identity(seed: int, market_id: str, index: int) -> Identity:
    digest = stable_hash64("identity-pool", seed, market_id, index)
    a = 8 + (digest & 0x7)                 # Android-ish major
    b = (digest >> 3) & 0xF                # minor
    c = 60 + ((digest >> 7) & 0x3F)        # build / model digits
    template = _UA_TEMPLATES[(digest >> 13) & 0x3]
    ip = (
        f"10.{(digest >> 16) & 0xFF}"
        f".{(digest >> 24) & 0xFF}"
        f".{1 + ((digest >> 32) & 0xFE)}"
    )
    return Identity(ip=ip, user_agent=template.format(a=a, b=b, c=c))


class IdentityPool:
    """A lane's rotatable identities plus their ban bookkeeping.

    Identities are regenerated from ``(seed, market_id)`` at
    construction, so only the mutable state (current slot, ban windows,
    counters) needs to ride the checkpoint journal.
    """

    def __init__(self, market_id: str, policy: IdentityPolicy, seed: int = 0):
        self.market_id = market_id
        self.policy = policy
        self._identities: List[Identity] = [
            _derive_identity(seed, market_id, index)
            for index in range(policy.size)
        ]
        self._current = 0
        self._banned_until: List[float] = [-1.0] * policy.size
        self.rotations = 0
        self.bans_recorded = 0

    @property
    def size(self) -> int:
        return len(self._identities)

    @property
    def current(self) -> Identity:
        return self._identities[self._current]

    @property
    def current_index(self) -> int:
        return self._current

    def checkout(self, now: float) -> Tuple[Identity, bool]:
        """The identity for the next request; True when this checkout
        rotated (the current identity is still serving a ban it can now
        dodge)."""
        rotated = False
        if now < self._banned_until[self._current]:
            # Current identity is mid-ban (e.g. after a resume cut):
            # try to dodge before the request rather than eat the 403.
            rotated = self._advance(now)
        return self._identities[self._current], rotated

    def ban_current(self, now: float, retry_after: Optional[float]) -> None:
        """Record a server ban against the identity in use."""
        window = max(retry_after or 0.0, self.policy.cooldown)
        until = now + window
        if until > self._banned_until[self._current]:
            self._banned_until[self._current] = until
        self.bans_recorded += 1

    def rotate_to_available(self, now: float) -> bool:
        """Advance to the next unbanned identity; False if all banned."""
        return self._advance(now)

    def _advance(self, now: float) -> bool:
        size = self.size
        for step in range(1, size + 1):
            candidate = (self._current + step) % size
            if now >= self._banned_until[candidate]:
                if candidate != self._current:
                    self._current = candidate
                    self.rotations += 1
                    return True
                return False
        return False

    def earliest_release(self, now: float) -> Optional[float]:
        """Sim-days until the first identity frees up; None when one is
        already free (then :meth:`rotate_to_available` succeeds)."""
        waits = [until - now for until in self._banned_until]
        if min(waits) <= 0:
            return None
        return min(waits)

    # -- checkpoint plumbing ----------------------------------------------

    def export_state(self) -> dict:
        return {
            "current": self._current,
            "banned_until": list(self._banned_until),
            "rotations": self.rotations,
            "bans_recorded": self.bans_recorded,
        }

    def restore_state(self, state: dict) -> None:
        # A journal from before on-ban became the only rotation also
        # carries a ``checkouts`` count; nothing reads it now.
        self._current = int(state["current"]) % self.size
        banned = [float(x) for x in state["banned_until"]]
        # Tolerate a policy-size change across resume: pad/truncate.
        banned = (banned + [-1.0] * self.size)[: self.size]
        self._banned_until = banned
        self.rotations = int(state["rotations"])
        self.bans_recorded = int(state["bans_recorded"])
