"""HTTP client with retries, rate-limit back-off, and hostile-market
countermeasures.

``HttpClient`` wraps a server's ``handle`` callable.  On 429 it sleeps
(advances the simulated clock) for the server-suggested ``retry_after``
plus deterministic jitter and retries; on 5xx, connection timeouts
(599), and malformed 200 payloads it retries per
:class:`~repro.net.retry.RetryPolicy`; 404 raises
:class:`~repro.net.http.NotFoundError`.

Counters: :class:`ClientStats` is a view over metrics-registry series,
not a private tally.  A standalone client counts into its own registry;
the crawl engine binds each lane's client to the campaign's
per-market telemetry (``client.stats = telemetry.market(m)``), so every
request, retry and ban lands directly in the series the export and the
live monitor read, and nothing is copied, diffed or folded afterwards.

Against hostile markets (:mod:`repro.markets.hostility`) the client
additionally:

* stamps every request with its lane time (``x-sim-time``) and, when an
  :class:`~repro.net.identity.IdentityPool` is installed, a rotatable
  client identity (``x-client-ip`` + ``user-agent``);
* maintains a session token via a
  :class:`~repro.net.credentials.CredentialManager` — proactive refresh
  before expiry, bounded re-login on unexpected 401s;
* answers anti-bot 403 bans (``retry_after`` set) by banning the
  current identity in the pool, rotating to a free one, or waiting out
  the earliest release — and transparently decodes binary wire payloads
  in :meth:`get_json`.

One request, one loop: every decision (identity checkout, token
attachment, breaker accounting, re-login, ban rotation, 429 and
transient retry budgets) lives in :meth:`HttpClient._request`, which
pushes each attempt's ``Request`` through the client's transport (a
server's ``handle`` or a :class:`~repro.net.transport.SocketTransport`),
one in flight at a time.  Back-off advances the simulated clock.

Jitter: a fleet of identical clients sleeping exactly ``retry_after``
wakes up in lockstep and re-synchronizes the very storm the 429s were
shedding.  Every rate-limit sleep is therefore stretched by a
deterministic, per-client fraction (up to +25%), derived from the
client's ``jitter_key`` and its lifetime request ordinal (``sent``,
which unlike the campaign-bound ``stats.requests`` never resets) so
runs stay reproducible.
"""

from __future__ import annotations

import operator
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Mapping, Optional

from repro.net import wire
from repro.net.http import (
    HTTP_FORBIDDEN,
    HTTP_NOT_FOUND,
    HTTP_SERVER_ERROR,
    HTTP_TIMEOUT,
    HTTP_TOO_MANY_REQUESTS,
    HTTP_UNAUTHORIZED,
    AuthError,
    ForbiddenError,
    MalformedPayloadError,
    NotFoundError,
    RateLimitedError,
    Request,
    RequestTimeoutError,
    Response,
    ServerError,
)
from repro.net.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN
from repro.util.rng import stable_hash32
from repro.util.simtime import SimClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.breaker import CircuitBreaker
    from repro.net.credentials import CredentialManager
    from repro.net.identity import IdentityPool
    from repro.obs import LaneObs

__all__ = ["HttpClient", "ClientStats", "counter_property",
           "RATE_LIMIT_JITTER_MAX", "MAX_AUTH_RETRIES"]

#: Upper bound of the multiplicative jitter applied to rate-limit sleeps.
RATE_LIMIT_JITTER_MAX = 0.25

#: Re-logins tolerated per logical request before raising AuthError.
MAX_AUTH_RETRIES = 2


#: Whole-number client counters; each lives in a ``crawl_<field>_total``
#: registry series.
_CLIENT_COUNTERS = (
    "requests", "retries", "rate_limited", "timeouts", "malformed",
    "not_found", "failures", "rate_limit_aborts", "breaker_fast_fails", "logins",
    "token_refreshes", "bans_hit", "identity_rotations",
)


def counter_property(field: str, as_int: bool = True) -> property:
    """An attribute over the ``field`` series of a registry view."""

    def fget(self):
        value = self._series[field].value
        return int(value) if as_int else value

    def fset(self, value) -> None:
        self._series[field].value = float(value)

    return property(fget, fset)


class ClientStats:
    """Counters for one client, as a view over registry counters.

    Every field is a property over a registry series labeled
    ``{campaign, market}``; ``stats.requests += 1`` writes the series.
    A client built without a registry counts into a private one; the
    crawl engine rebinds each lane's client to its campaign's
    :class:`~repro.crawler.telemetry.MarketTelemetry` (a subclass), so
    the client counts straight into the series the export and the live
    monitor read.

    ``failures`` counts *abandoned requests* — every request the client
    gave up on, exactly once each, whatever the reason (retry
    exhaustion, rate-limit cap or wait-budget exhaustion, ban-recovery
    exhaustion, breaker fast-fail).  Transient faults that a retry
    eventually pushed through never touch it; they show up in
    ``retries`` and the per-mode counters instead, so telemetry can
    distinguish "absorbed turbulence" from "work lost".  Two
    sub-counters break failures down: ``rate_limit_aborts`` (gave up
    because the server shed us) and ``breaker_fast_fails`` (never sent:
    the circuit was open or the market quarantined).  404 is a
    definitive answer, not a failure; it stays in ``not_found``.

    The hostility counters record countermeasure work: ``logins``
    (session tokens obtained, first login included), ``token_refreshes``
    (the subset of logins that replaced an earlier token),
    ``bans_hit`` (anti-bot 403s received), and ``identity_rotations``
    (pool advances, whatever triggered them).  ``sim_days_backoff`` is
    the simulated time the client slept (back-off).
    """

    #: Counter attribute -> registry series name.
    METRICS: Dict[str, str] = {
        **{field: f"crawl_{field}_total" for field in _CLIENT_COUNTERS},
        "sim_days_backoff": "crawl_backoff_sim_days_total",
    }

    __slots__ = ("_series",)

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, campaign: str = "", market: str = ""
    ):
        registry = registry if registry is not None else MetricsRegistry()
        self._series = {
            field: registry.counter(metric, campaign=campaign, market=market)
            for field, metric in self.METRICS.items()
        }

    def export_state(self) -> Dict[str, float]:
        """The client-owned counters, JSON-plain (subclass counters excluded)."""
        return {field: getattr(self, field) for field in ClientStats.METRICS}

    def restore_state(self, state: Mapping[str, float]) -> None:
        """Write exported counters back into this view's series."""
        for field in ClientStats.METRICS:
            setattr(self, field, state[field])


for _field in _CLIENT_COUNTERS:
    setattr(ClientStats, _field, counter_property(_field))
ClientStats.sim_days_backoff = counter_property("sim_days_backoff", as_int=False)
del _field


def _span_counters(stats: ClientStats) -> tuple:
    """The counters an ``http.request`` span reports deltas of."""
    return (stats.requests, stats.retries, stats.rate_limited, stats.breaker_fast_fails,
            stats.logins, stats.bans_hit, stats.identity_rotations)


class HttpClient:
    """A retrying client bound to one server endpoint.

    Parameters
    ----------
    handler:
        The server's ``handle(Request) -> Response`` callable, or any
        transport of that shape.
    clock:
        Clock whose ``advance`` absorbs this client's sleeps.  Under the
        parallel crawl engine this is a per-market lane clock, so one
        market's back-off never stalls another market's lane.
    retry_policy:
        Back-off schedule shared by 5xx, timeout, and malformed-payload
        retries.
    max_rate_limit_waits:
        How many consecutive 429s to tolerate per request before giving
        up with :class:`RateLimitedError`.  The same budget bounds
        all-identities-banned waits during ban recovery.
    max_rate_limit_wait:
        Cap (simulated days) on a single honored ``retry_after``.  A 429
        whose hint exceeds the cap is treated as a hard limit and raised
        immediately — the Google Play download quota answers with a
        multi-day hint that no polite crawler should wait out, while
        burst 429s hint minutes and are worth riding through.  ``None``
        honors any hint.  Also caps how long ban recovery will wait for
        an identity to free up.
    jitter_key:
        Stable identity mixed into the rate-limit jitter so distinct
        clients desynchronize while reruns reproduce exactly.
    credentials:
        Optional :class:`~repro.net.credentials.CredentialManager` for
        authenticated markets: a token is attached to every request
        (``authorization``), refreshed proactively, and re-obtained on
        401 up to :data:`MAX_AUTH_RETRIES` times per logical request.
    identities:
        Optional :class:`~repro.net.identity.IdentityPool`; when set,
        every request carries the pool's current ``x-client-ip`` and
        ``user-agent``, and anti-bot bans trigger rotation.
    auth_path:
        The login endpoint (requests to it skip token attachment).
    obs:
        Optional :class:`~repro.obs.LaneObs` instrumentation binding.
        ``None`` (the default) is the fast path: per-request work is a
        single ``is None`` branch, nothing is recorded.  Otherwise
        :meth:`request` enters :meth:`_traced` around each logical
        request; its ``http.request`` span attributes are deltas of this
        client's counters, exact because one request is in flight at a
        time.
    """

    def __init__(
        self,
        handler: Callable[[Request], Response],
        clock: SimClock,
        retry_policy: Optional[RetryPolicy] = None,
        max_rate_limit_waits: int = 2,
        max_rate_limit_wait: Optional[float] = None,
        jitter_key: str = "",
        breaker: Optional["CircuitBreaker"] = None,
        credentials: Optional["CredentialManager"] = None,
        identities: Optional["IdentityPool"] = None,
        auth_path: str = "/login",
        obs: Optional["LaneObs"] = None,
    ):
        self._handler = handler
        self._clock = clock
        self._retry_policy = retry_policy or RetryPolicy()
        self._max_rate_limit_waits = max_rate_limit_waits
        self._max_rate_limit_wait = max_rate_limit_wait
        self._jitter_key = jitter_key
        self.breaker = breaker
        self.credentials = credentials
        self.identities = identities
        self._auth_path = auth_path
        self.obs = obs
        self.stats = ClientStats()
        #: Requests sent over the client's whole life (the jitter
        #: ordinal); ``stats.requests`` counts only the bound campaign.
        self.sent = 0

    def _sleep(self, duration: float) -> None:
        """Advance simulated lane time; instantaneous in wall time."""
        self._clock.advance(duration)
        self.stats.sim_days_backoff += duration

    def _jittered(self, base: float) -> float:
        """Stretch a rate-limit sleep by a deterministic jitter fraction."""
        roll = stable_hash32("rl-jitter", self._jitter_key, self.sent) % 1000
        return base * (1.0 + RATE_LIMIT_JITTER_MAX * roll / 1000.0)

    def _event(self, name: str, **attrs: object) -> None:
        """Record a point-in-time countermeasure fact (tracing only)."""
        obs = self.obs
        if obs is not None and obs.tracer is not None:
            obs.tracer.event(
                name, market=obs.market, sim_time=self._clock.now, **attrs
            )

    @contextmanager
    def _traced(self, path: str) -> Iterator[None]:
        """Instrument one logical request.

        Feeds the lane's histograms and, when tracing, wraps the whole
        retry loop in one ``http.request`` span whose attributes report
        what the *logical* request cost: attempts sent, retries and 429
        waits absorbed, simulated back-off charged (jitter included),
        logins and ban-driven rotations spent, and whether the breaker
        fast-failed it without a single send.  The attributes are
        deltas of the client's counters, exact because a client has one
        request in flight at a time.
        """
        obs = self.obs
        stats = self.stats
        tracer = obs.tracer
        if tracer is not None:
            span = tracer.span("http.request", market=obs.market,
                               clock=obs.clock, path=path)
            before = _span_counters(stats)
        else:
            span = NULL_SPAN
        slept0 = stats.sim_days_backoff
        start = time.perf_counter()
        with span:
            try:
                yield
            finally:
                backoff = stats.sim_days_backoff - slept0
                if obs.hist_request is not None:
                    obs.hist_request.observe(time.perf_counter() - start)
                    if backoff > 0:
                        obs.hist_backoff.observe(backoff)
                if tracer is not None:
                    attempts, retries, rate_limited, fast_fails, logins, bans, rotations = (
                        map(operator.sub, _span_counters(stats), before)
                    )
                    span["attempts"] = attempts
                    span["retries"] = retries
                    span["rate_limited"] = rate_limited
                    span["backoff_sim_days"] = backoff
                    if fast_fails:
                        span["breaker_fast_fail"] = True
                    if logins:
                        span["logins"] = logins
                    if bans:
                        span["bans_hit"] = bans
                    if rotations:
                        span["identity_rotations"] = rotations

    def request(self, path: str, params: Optional[Mapping[str, Any]] = None) -> Response:
        """Issue a request, retrying transient failures.

        Raises
        ------
        NotFoundError
            On 404.
        RateLimitedError
            When the server keeps answering 429 past the waits budget,
            or hints a wait above ``max_rate_limit_wait``.
        AuthError
            When the server keeps answering 401 past the re-login
            budget (or no credentials are installed).
        ForbiddenError
            On a policy 403 (``retry_after`` unset — definitive, like a
            404), or when identity rotation and waiting could not clear
            an anti-bot ban.
        RequestTimeoutError
            When timeouts persist past the retry budget.
        MalformedPayloadError
            When garbled payloads persist past the retry budget.
        ServerError
            When 5xx persists past the retry budget.
        CircuitOpenError / MarketQuarantinedError
            From the circuit breaker, before any request is sent, when
            the market's circuit is open (cooling down) or the market
            has been quarantined outright.
        """
        if self.obs is None:
            return self._request(path, params)
        with self._traced(path):
            return self._request(path, params)

    def _request(self, path: str, params: Optional[Mapping[str, Any]]) -> Response:
        """One logical request's decision loop, uninstrumented.

        Returns the successful response; raises what :meth:`request`
        documents.  The headers are rebuilt per attempt because the
        identity, the token, and the lane-time stamp can all change
        between retries.
        """
        if self.breaker is not None:
            try:
                self.breaker.before_request()
            except Exception:
                # Fast-failed: abandoned without a single request sent.
                self.stats.failures += 1
                self.stats.breaker_fast_fails += 1
                raise
        base_params = dict(params or {})
        rate_limit_waits = ban_waits = transient_retries = auth_retries = 0
        while True:
            now = self._clock.now
            headers: Dict[str, str] = {"x-sim-time": repr(now)}
            if self.identities is not None:
                identity, rotated = self.identities.checkout(now)
                if rotated:
                    self.stats.identity_rotations += 1
                    self._event("identity.rotate", reason="checkout",
                                identity=identity.ip)
                headers.update(identity.headers())
            if self.credentials is not None and path != self._auth_path:
                headers["authorization"] = self._token(now)
            self.stats.requests += 1
            self.sent += 1
            resp = self._handler(Request(path=path, params=base_params, headers=headers))
            if resp.ok:
                if self.breaker is not None:
                    self.breaker.record_success()
                return resp
            status = resp.status
            if status == HTTP_NOT_FOUND:
                self.stats.not_found += 1
                if self.breaker is not None:
                    self.breaker.record_success()  # a 404 is a live server
                raise NotFoundError(path)
            if status == HTTP_UNAUTHORIZED:
                if self.credentials is None or auth_retries >= MAX_AUTH_RETRIES:
                    raise self._give_up(AuthError(path))
                auth_retries += 1
                self.credentials.invalidate()
                continue  # the next attempt re-logs-in
            if status == HTTP_FORBIDDEN:
                if resp.retry_after is None:
                    # Policy rejection (e.g. a package-list-only market
                    # refusing enumeration): definitive, like a 404.
                    if self.breaker is not None:
                        self.breaker.record_success()
                    raise ForbiddenError(path)
                self.stats.bans_hit += 1
                self._event("ban.hit", path=path, retry_after=resp.retry_after)
                pool = self.identities
                if pool is None:
                    raise self._ban_abort(path, resp.retry_after)
                now = self._clock.now
                pool.ban_current(now, resp.retry_after)
                if self._rotate_off_ban(now):
                    continue
                # Every identity is serving a ban: wait for the
                # earliest release (budgeted like 429 waits).
                wait = pool.earliest_release(now)
                if wait is None:
                    continue  # a ban lapsed already; retry in place
                if (
                    self._max_rate_limit_wait is not None
                    and wait > self._max_rate_limit_wait
                ) or ban_waits >= self._max_rate_limit_waits:
                    raise self._ban_abort(path, resp.retry_after)
                ban_waits += 1
                self._sleep(self._jittered(wait))
                self._rotate_off_ban(self._clock.now)
                continue
            if status == HTTP_TOO_MANY_REQUESTS:
                self.stats.rate_limited += 1
                wait = resp.retry_after if resp.retry_after else 1.0 / 24
                if (
                    self._max_rate_limit_wait is not None
                    and wait > self._max_rate_limit_wait
                ) or rate_limit_waits >= self._max_rate_limit_waits:
                    raise self._rate_limit_abort(path, resp.retry_after)
                rate_limit_waits += 1
                self._sleep(self._jittered(wait))
                continue
            # Transient faults share one retry budget and schedule.
            if status == HTTP_TIMEOUT:
                self.stats.timeouts += 1
                error = RequestTimeoutError
            elif resp.malformed:
                self.stats.malformed += 1
                error = MalformedPayloadError
            elif status >= HTTP_SERVER_ERROR:
                error = ServerError
            else:
                raise self._give_up(ServerError(path))
            if transient_retries >= self._retry_policy.max_retries:
                raise self._give_up(error(path))
            transient_retries += 1
            self.stats.retries += 1
            self._sleep(self._retry_policy.delay(transient_retries))

    def _token(self, now: float) -> str:
        """A session token valid at ``now``, logging in single-flight."""
        creds = self.credentials
        with creds.lock:
            token = creds.token_if_valid(now)
            if token is None:
                token = self._install_token(self._request(self._auth_path, None))
            return token

    def _rotate_off_ban(self, now: float) -> bool:
        """Advance the pool past banned identities; True when rotated."""
        if self.identities is not None and self.identities.rotate_to_available(now):
            self.stats.identity_rotations += 1
            self._event("identity.rotate", reason="ban",
                        identity=self.identities.current.ip)
            return True
        return False

    def _install_token(self, login: Response) -> str:
        """Adopt the session token a login exchange returned."""
        refreshing = self.credentials.ever_logged_in
        payload = self._payload(login)
        token = payload["token"]
        # No sleep happens between the winning login attempt and here,
        # so clock.now is the server's session start time.
        self.credentials.install(token, float(payload["ttl"]), self._clock.now)
        self.stats.logins += 1
        if refreshing:
            self.stats.token_refreshes += 1
        self._event("auth.login", refresh=refreshing)
        return token

    def _give_up(self, exc: Exception) -> Exception:
        """Account one abandoned request and feed the breaker."""
        self.stats.failures += 1
        if self.breaker is not None:
            self.breaker.record_failure()
        return exc

    def _rate_limit_abort(self, path: str, retry_after: Optional[float]) -> Exception:
        """Abandon on rate limiting: a failure, but a *polite* one.

        Quota-style 429s (Google Play's multi-day download hint) mean
        the server is alive and shedding us by policy, so they count as
        abandoned work without feeding the breaker — tripping the
        circuit would also fast-fail the market's healthy metadata
        endpoints.
        """
        self.stats.failures += 1
        self.stats.rate_limit_aborts += 1
        return RateLimitedError(path, retry_after)

    def _ban_abort(self, path: str, retry_after: float) -> Exception:
        """Abandon under an anti-bot ban the pool could not dodge.

        Like :meth:`_rate_limit_abort`, the breaker is *not* fed: the
        server is alive and shedding this identity by policy, and
        quarantining the whole market would discard endpoints the next
        (rotated or rested) identity can still reach.
        """
        self.stats.failures += 1
        return ForbiddenError(path, retry_after)

    @staticmethod
    def _payload(resp: Response) -> Any:
        """The response's payload, binary wire decoded."""
        if resp.json is None and resp.body is not None and wire.is_wire(resp.body):
            return wire.decode(resp.body)
        return resp.json

    def get_json(self, path: str, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Request and return the payload (binary wire decoded)."""
        return self._payload(self.request(path, params))

    def get_bytes(self, path: str, params: Optional[Mapping[str, Any]] = None) -> bytes:
        """Request and return the binary body; a bodyless answer is a server error."""
        body = self.request(path, params).body
        if body is None:
            raise ServerError(path)
        return body
