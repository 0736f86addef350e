"""Configurable server-side fault injection.

The paper's crawlers fought every failure mode a heavily loaded market
frontend can produce: transient 5xx storms, hung connections, truncated
HTML, and burst rate limiting.  :class:`FaultPlan` describes a mix of
those modes and :class:`FaultInjector` applies it deterministically —
the fault a request sees depends only on (market, request ordinal), so
a crawl is bit-reproducible at any worker count.

Modes
-----
``transient_500``
    Share of requests answered with a 500.
``timeout``
    Share of requests that hang until the client-side timeout (599).
``malformed``
    Share of 200s whose payload arrives truncated/garbled.
``burst_429`` (period/length)
    Every ``burst_429_period`` requests, a burst of
    ``burst_429_length`` consecutive 429s with a short ``retry_after``
    — the "429-happy market" pattern, distinct from Google Play's hard
    download quota whose ``retry_after`` is measured in days.
``blackout`` (windows)
    Total outage windows: every request whose simulated day falls in a
    ``[start, start + duration)`` window times out, unconditionally.
    This is the market-goes-dark stressor the circuit breaker and
    checkpoint/resume machinery are built for; it ignores
    ``max_consecutive`` because no retry budget rides out a dead
    frontend.  Windows are normalized at construction — sorted,
    overlapping/touching windows merged, zero/negative durations
    rejected — so two plans describing the same outages compare (and
    hash) equal regardless of the order the windows were written in.

``max_consecutive`` caps how many faulted responses can occur back to
back, so a retry budget of N >= max_consecutive is guaranteed to push
every request through — the property the fault-convergence tests rely
on.  ``None`` leaves streak lengths unbounded (the legacy behavior,
where extreme fault rates genuinely exhaust clients).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.net.http import Response
from repro.util.rng import stable_hash32

__all__ = ["FaultPlan", "FaultInjector", "CLEAN_PLAN"]

#: Burst-429 retry hint: two simulated minutes, short enough that a
#: polite client waits it out rather than abandoning the request.
BURST_RETRY_AFTER = 2.0 / (24 * 60)


@dataclass(frozen=True)
class FaultPlan:
    """The fault mix one market server injects."""

    transient_500: float = 0.0
    timeout: float = 0.0
    malformed: float = 0.0
    burst_429_period: int = 0  # 0 disables burst injection
    burst_429_length: int = 2
    burst_retry_after: float = BURST_RETRY_AFTER
    max_consecutive: Optional[int] = None
    #: Outage windows as ``(start_day, duration)`` pairs; normalized
    #: (sorted + merged) by ``__post_init__``.
    blackout_windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("transient_500", "timeout", "malformed"):
            share = getattr(self, name)
            if not 0.0 <= share < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {share}")
        if self.burst_429_period < 0 or self.burst_429_length < 1:
            raise ValueError("invalid burst-429 parameters")
        if 0 < self.burst_429_period <= self.burst_429_length:
            raise ValueError("burst_429_period must exceed burst_429_length")
        if self.max_consecutive is not None and self.max_consecutive < 1:
            raise ValueError("max_consecutive must be positive")
        object.__setattr__(
            self, "blackout_windows", _normalize_windows(self.blackout_windows)
        )

    @classmethod
    def blackout(cls, start_day: float, duration: float, **extra) -> "FaultPlan":
        """A plan whose market serves 100% timeouts for a time window."""
        return cls.blackouts([(start_day, duration)], **extra)

    @classmethod
    def blackouts(
        cls, windows: Iterable[Sequence[float]], **extra
    ) -> "FaultPlan":
        """A plan with multiple outage windows (``(start, duration)``
        pairs, any order/overlap — normalized at construction)."""
        return cls(
            blackout_windows=tuple(
                (float(start), float(duration)) for start, duration in windows
            ),
            **extra,
        )

    def in_blackout(self, now: float) -> bool:
        return any(
            start <= now < start + duration
            for start, duration in self.blackout_windows
        )

    @property
    def active(self) -> bool:
        return bool(
            self.transient_500
            or self.timeout
            or self.malformed
            or self.burst_429_period
            or self.blackout_windows
        )


def _normalize_windows(
    windows: Iterable[Sequence[float]],
) -> Tuple[Tuple[float, float], ...]:
    """Sort ``(start, duration)`` windows and merge overlaps/touches.

    The old single-window code silently depended on declaration order
    once callers started composing plans; canonicalizing here makes
    equal outage schedules compare equal and keeps ``in_blackout`` a
    scan over disjoint intervals.
    """
    cleaned = []
    for window in windows:
        start, duration = window
        start, duration = float(start), float(duration)
        if duration <= 0:
            raise ValueError(
                f"blackout window duration must be positive, got {window!r}"
            )
        cleaned.append((start, duration))
    cleaned.sort()
    merged: list = []
    for start, duration in cleaned:
        if merged and start <= merged[-1][0] + merged[-1][1]:
            prev_start, prev_duration = merged[-1]
            merged[-1] = (
                prev_start,
                max(prev_duration, start + duration - prev_start),
            )
        else:
            merged.append((start, duration))
    return tuple(merged)


#: A plan that injects nothing (the default server behavior).
CLEAN_PLAN = FaultPlan()


class FaultInjector:
    """Applies a :class:`FaultPlan` to one market's request stream."""

    def __init__(self, market_id: str, plan: FaultPlan):
        self._market_id = market_id
        self._plan = plan
        self._streak = 0
        self.injected_500 = 0
        self.injected_timeouts = 0
        self.injected_malformed = 0
        self.injected_429 = 0

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def injected_total(self) -> int:
        return (
            self.injected_500
            + self.injected_timeouts
            + self.injected_malformed
            + self.injected_429
        )

    def _roll(self, salt: str, ordinal: int) -> float:
        return (stable_hash32(salt, self._market_id, ordinal) % 10_000) / 10_000

    def inject(self, ordinal: int, now: float = 0.0) -> Optional[Response]:
        """The fault response for request ``ordinal``, or None to pass through.

        Deterministic: depends only on the plan, the market id, the
        per-server request ordinal, and (for blackout windows) the
        simulated day ``now``.
        """
        plan = self._plan
        if not plan.active:
            return None
        if plan.in_blackout(now):
            # A dead frontend answers nothing; the streak cap does not
            # apply — there is no "eventually it works" to converge to.
            self.injected_timeouts += 1
            return Response.timeout()
        if plan.max_consecutive is not None and self._streak >= plan.max_consecutive:
            self._streak = 0
            return None
        response = self._decide(ordinal)
        if response is None:
            self._streak = 0
        else:
            self._streak += 1
        return response

    def _decide(self, ordinal: int) -> Optional[Response]:
        plan = self._plan
        if plan.burst_429_period and ordinal % plan.burst_429_period < plan.burst_429_length:
            self.injected_429 += 1
            return Response.rate_limited(retry_after=plan.burst_retry_after)
        # The 500 roll keeps its original "transient" salt, so a seed
        # reproduces the same failure positions as earlier releases.
        if plan.transient_500 and self._roll("transient", ordinal) < plan.transient_500:
            self.injected_500 += 1
            return Response(status=500)
        if plan.timeout and self._roll("fault-timeout", ordinal) < plan.timeout:
            self.injected_timeouts += 1
            return Response.timeout()
        if plan.malformed and self._roll("fault-malformed", ordinal) < plan.malformed:
            self.injected_malformed += 1
            return Response.garbled()
        return None

    # -- checkpoint plumbing ----------------------------------------------

    def export_state(self) -> dict:
        return {
            "streak": self._streak,
            "injected_500": self.injected_500,
            "injected_timeouts": self.injected_timeouts,
            "injected_malformed": self.injected_malformed,
            "injected_429": self.injected_429,
        }

    def restore_state(self, state: dict) -> None:
        self._streak = int(state["streak"])
        self.injected_500 = int(state["injected_500"])
        self.injected_timeouts = int(state["injected_timeouts"])
        self.injected_malformed = int(state["injected_malformed"])
        self.injected_429 = int(state["injected_429"])
