"""The parallel crawl engine: market lanes over a thread pool.

The paper's campaign ran on a 50-server fleet issuing requests to all
17 markets concurrently (Section 3).  This module supplies that
concurrency while keeping every run bit-reproducible:

* **One lane per market.**  Each market gets its own
  :class:`~repro.net.client.HttpClient` and its own :class:`LaneClock`.
  Within a lane requests are strictly sequential, so the request-ordinal
  sequence a server observes — and therefore its deterministic fault
  injection — is identical at any worker count.
* **Lanes never touch shared state.**  Client back-off advances only
  the lane clock; the shared campaign clock stays frozen until the
  coordinator accounts the campaign duration.  A stalled, 429-happy
  market burns its own lane time and cannot stall the fleet.
* **Barrier scheduling.**  :meth:`CrawlEngine.run` fans a batch of
  per-market tasks out over a :class:`~concurrent.futures.ThreadPoolExecutor`
  and joins them; the coordinator then merges results in canonical
  market order, which is what makes parallel output identical to the
  serial path.

This is the only crawl engine.  Every lane's client is a blocking
:class:`~repro.net.client.HttpClient` with one request in flight, over
either the server's in-process ``handle`` or a
:class:`~repro.net.transport.SocketTransport` into the serving tier.
Threads only pay off because a "request" models network I/O: with
:class:`~repro.markets.server.MarketServer` latency injection enabled
(or against a real socket transport) lanes overlap their waits, which
is where the benchmark speedup comes from.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, TypeVar

from repro.crawler.telemetry import CrawlTelemetry
from repro.net.breaker import DEFAULT_BREAKER_POLICY, BreakerPolicy, CircuitBreaker
from repro.net.client import ClientStats, HttpClient
from repro.net.credentials import CredentialManager
from repro.net.identity import IdentityPolicy, IdentityPool
from repro.net.retry import RetryPolicy
from repro.obs import NULL_OBS, Observability, breaker_listener
from repro.util.simtime import SimClock

__all__ = [
    "LaneClock",
    "MarketLane",
    "CrawlEngine",
    "DEFAULT_RATE_LIMIT_WAITS",
    "RATE_LIMIT_WAIT_CAP",
]

T = TypeVar("T")

#: Consecutive 429s a lane rides out per request before giving up.
DEFAULT_RATE_LIMIT_WAITS = 4

#: Longest ``retry_after`` hint (simulated days) a lane honors.  Burst
#: 429s hint minutes and are waited out; Google Play's download quota
#: hints 30 days and is surfaced immediately so the coordinator can
#: fall back to the offline archive.
RATE_LIMIT_WAIT_CAP = 0.5


class LaneClock:
    """One market lane's view of campaign time.

    ``now`` is the shared campaign clock plus a lane-local offset; all
    of the lane's back-off sleeps land in the offset.  Lanes therefore
    wait concurrently — as fleet workers do — instead of serializing
    their waits through the shared clock, and the shared clock never
    moves mid-campaign, which keeps record timestamps and
    market availability stable no matter how requests interleave.
    """

    def __init__(self, base: SimClock):
        self._base = base
        self.offset = 0.0

    @property
    def now(self) -> float:
        return self._base.now + self.offset

    def advance(self, duration: float) -> float:
        if duration < 0:
            raise ValueError(f"cannot advance by a negative duration: {duration}")
        self.offset += duration
        return self.now


class MarketLane:
    """One market's client, clock, and campaign-scoped counters."""

    def __init__(
        self,
        market_id: str,
        transport,
        base_clock: SimClock,
        retry_policy: Optional[RetryPolicy],
        max_rate_limit_waits: int,
        max_rate_limit_wait: Optional[float],
        breaker_policy: Optional[BreakerPolicy] = None,
        obs: Observability = NULL_OBS,
        credentials: Optional[CredentialManager] = None,
        identities: Optional[IdentityPool] = None,
    ):
        """``transport`` is whatever the lane's client pushes requests
        through: the server's bare ``handle`` callable (in-process) or
        a :class:`~repro.net.transport.SocketTransport`."""
        self.market_id = market_id
        self.clock = LaneClock(base_clock)
        self.breaker = (
            CircuitBreaker(
                market_id,
                self.clock,
                breaker_policy,
                on_transition=breaker_listener(obs, market_id, self.clock),
            )
            if breaker_policy is not None
            else None
        )
        self.credentials = credentials
        self.identities = identities
        self.client = HttpClient(
            transport,
            self.clock,
            retry_policy=retry_policy,
            max_rate_limit_waits=max_rate_limit_waits,
            max_rate_limit_wait=max_rate_limit_wait,
            jitter_key=market_id,
            breaker=self.breaker,
            credentials=credentials,
            identities=identities,
            obs=obs.lane(market_id, self.clock),
        )

    def begin_campaign(self, stats: ClientStats) -> None:
        """Bind the client's counters to ``stats`` (the campaign's lane)."""
        self.client.stats = stats
        if self.breaker is not None:
            # A new campaign starts with a clean bill of health: markets
            # that died last campaign get re-probed, not written off.
            self.breaker.reset()

    # -- checkpoint plumbing ----------------------------------------------

    def export_state(self) -> dict:
        """The lane-side state one journal entry snapshots."""
        state: dict = {
            "stats": self.client.stats.export_state(),
            "sent": self.client.sent,
            "offset": self.clock.offset,
        }
        if self.breaker is not None:
            state["breaker"] = self.breaker.export_state()
        if self.credentials is not None:
            state["auth"] = self.credentials.export_state()
        if self.identities is not None:
            state["identities"] = self.identities.export_state()
        return state

    def restore_state(self, state: dict) -> None:
        self.client.stats.restore_state(state["stats"])
        self.client.sent = int(state["sent"])
        self.clock.offset = float(state["offset"])
        if self.breaker is not None and "breaker" in state:
            self.breaker.restore_state(state["breaker"])
        if self.credentials is not None and "auth" in state:
            self.credentials.restore_state(state["auth"])
        if self.identities is not None and "identities" in state:
            self.identities.restore_state(state["identities"])


class CrawlEngine:
    """Schedules per-market tasks over a shared worker pool.

    ``workers`` bounds real concurrency; results are identical at any
    value because work is sharded by market and merged in canonical
    order by the caller.
    """

    def __init__(
        self,
        servers: Mapping[str, object],
        clock: SimClock,
        workers: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        max_rate_limit_waits: int = DEFAULT_RATE_LIMIT_WAITS,
        max_rate_limit_wait: Optional[float] = RATE_LIMIT_WAIT_CAP,
        breaker_policy: Optional[BreakerPolicy] = DEFAULT_BREAKER_POLICY,
        obs: Observability = NULL_OBS,
        identity_policy: Optional[IdentityPolicy] = None,
        identity_seed: int = 0,
        transports: Optional[Mapping[str, object]] = None,
    ):
        """``identity_policy`` equips every lane with an
        :class:`~repro.net.identity.IdentityPool` (identities derived
        from ``(identity_seed, market_id, slot)`` substreams — never
        from worker ids, preserving the determinism contract).  Lanes
        whose server demands authentication additionally get a
        :class:`~repro.net.credentials.CredentialManager`.

        ``transports`` substitutes a lane's transport for the server's
        in-process ``handle`` (e.g. :meth:`ServingTier.transports`);
        markets absent from the mapping keep the in-process fast path.
        The engine owns the transports it is handed and closes them in
        :meth:`close`."""
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._clock = clock
        self.obs = obs
        self._transports: Dict[str, object] = dict(transports or {})
        self._lanes: Dict[str, MarketLane] = {}
        for market_id, server in servers.items():
            gate = getattr(server, "hostility", None)
            needs_auth = gate is not None and gate.policy.auth
            transport = self._transports.get(market_id)
            self._lanes[market_id] = MarketLane(
                market_id,
                transport if transport is not None else server.handle,
                clock,
                retry_policy,
                max_rate_limit_waits,
                max_rate_limit_wait,
                breaker_policy,
                obs,
                credentials=CredentialManager(market_id) if needs_auth else None,
                identities=(
                    IdentityPool(market_id, identity_policy, seed=identity_seed)
                    if identity_policy is not None
                    else None
                ),
            )

    def close(self) -> None:
        """Release transport resources (sockets); idempotent."""
        transports, self._transports = self._transports, {}
        for transport in transports.values():
            close = getattr(transport, "close", None)
            if close is not None:
                close()

    # -- lanes -------------------------------------------------------------

    def lane(self, market_id: str) -> MarketLane:
        return self._lanes[market_id]

    def client(self, market_id: str) -> HttpClient:
        return self._lanes[market_id].client

    @property
    def market_ids(self) -> List[str]:
        """Canonical lane order: the server-map insertion order."""
        return list(self._lanes)

    @property
    def max_lane_backoff(self) -> float:
        """The slowest lane's accumulated sleep (simulated days)."""
        return max((lane.clock.offset for lane in self._lanes.values()), default=0.0)

    # -- campaign bookkeeping ---------------------------------------------

    def begin_campaign(self, label: str) -> CrawlTelemetry:
        """Start a telemetry window covering one campaign's traffic.

        The telemetry is a view over the run's metrics registry (when
        one is recording), and each lane's client counts straight into
        its market's series until :meth:`end_campaign`, so the operator
        table, the metrics export and the live monitor read the same
        counters.
        """
        telemetry = CrawlTelemetry(
            label=label, workers=self.workers, registry=self.obs.metrics
        )
        for market_id, lane in self._lanes.items():
            lane.begin_campaign(telemetry.market(market_id))
        return telemetry

    def end_campaign(self, telemetry: CrawlTelemetry) -> None:
        """Add the breaker trips, then unbind the clients.

        Traffic between campaigns (the targeted recheck) counts into a
        detached :class:`ClientStats` and so lands in no campaign.
        """
        for market_id, lane in self._lanes.items():
            if lane.breaker is not None:
                telemetry.market(market_id).breaker_trips += lane.breaker.trips
            lane.client.stats = ClientStats()

    # -- checkpoint plumbing ----------------------------------------------

    def lane_state(self, market_id: str) -> dict:
        """Export one lane's client/breaker state for the journal."""
        return self._lanes[market_id].export_state()

    def restore_lane_state(self, market_id: str, state: dict) -> None:
        self._lanes[market_id].restore_state(state)

    # -- scheduling --------------------------------------------------------

    def run(self, tasks: Mapping[str, Callable[[], T]]) -> Dict[str, T]:
        """Run one per-market task batch; barrier-join before returning.

        At width 1 everything runs inline on the calling thread — the
        serial path is literally the parallel path at width 1, not
        separate code.  Wider, each task runs in a copy of the
        submitting context, so its spans nest under the caller's.
        """
        width = min(self.workers, len(tasks))
        if width <= 1:
            return {market_id: task() for market_id, task in tasks.items()}
        with ThreadPoolExecutor(max_workers=width, thread_name_prefix="crawl-lane") as pool:
            futures = {
                market_id: pool.submit(contextvars.copy_context().run, task)
                for market_id, task in tasks.items()
            }
            return {market_id: future.result() for market_id, future in futures.items()}
