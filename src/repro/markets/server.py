"""HTTP-like market server.

Each market exposes the web interface the paper's crawlers scraped:

* ``/search?q=``       — exact package/app-name search (parallel search)
* ``/app?package=``    — one listing's metadata
* ``/related?package=``— recommendations (Google Play BFS expansion)
* ``/developer?name=`` — other apps by the same developer (BFS expansion)
* ``/categories`` and ``/category?name=&page=`` — browsing (Chinese stores)
* ``/index?i=``        — Baidu's incremental integer index
* ``/download?package=``— the APK binary

Google Play's ``/download`` is protected by a cumulative quota
(:class:`~repro.net.ratelimit.QuotaLimiter`): once the crawler's budget
is spent the endpoint answers 429 forever, reproducing the paper's need
to backfill APKs from AndroZoo.
"""

from __future__ import annotations

import datetime
import time
from typing import Optional

from repro.markets.hostility import HostileGate, HostilityPolicy
from repro.markets.store import MarketStore
from repro.net.faults import CLEAN_PLAN, FaultInjector, FaultPlan
from repro.net.http import Request, Response
from repro.net.ratelimit import QuotaLimiter
from repro.util.simtime import SimClock, date_to_day

__all__ = ["MarketServer", "DEFAULT_GP_APK_QUOTA_SHARE"]

#: HiApk discontinued its services by the end of 2017 (Section 7).
HIAPK_SHUTDOWN_DAY = date_to_day(datetime.date(2018, 1, 1))

#: OPPO's market became accessible only through its on-device app before
#: the second crawl (Section 7); its web interface went dark.
OPPO_WEB_SHUTDOWN_DAY = date_to_day(datetime.date(2018, 3, 1))

#: The paper's Google Play crawl obtained APKs for 287,110 of 2,031,946
#: listings (~14.1%) before rate limiting stopped it.
DEFAULT_GP_APK_QUOTA_SHARE = 0.141


class MarketServer:
    """Serves one market's store over the in-process HTTP layer."""

    def __init__(
        self,
        store: MarketStore,
        clock: SimClock,
        apk_quota: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        latency_s: float = 0.0,
        hostility: Optional[HostilityPolicy] = None,
    ):
        """``faults`` injects transient failures (500s, timeouts,
        malformed payloads, burst 429s) deterministically per request
        ordinal.  ``latency_s`` adds a real (wall-clock) per-request
        service delay — it models network I/O for the parallel-crawl
        benchmarks and never touches simulated time.
        ``hostility`` attaches a :class:`HostileGate` enforcing the
        market's adversarial behaviors (auth sessions, binary wire
        payloads, anti-bot bans, package-list-only enumeration)."""
        if latency_s < 0:
            raise ValueError(f"latency_s must be non-negative, got {latency_s}")
        self._store = store
        self._clock = clock
        if apk_quota is None and store.profile.apk_rate_limited:
            apk_quota = max(1, int(len(store) * DEFAULT_GP_APK_QUOTA_SHARE))
        self._apk_quota = QuotaLimiter(apk_quota) if apk_quota is not None else None
        self._faults = FaultInjector(store.market_id, faults or CLEAN_PLAN)
        self._latency_s = latency_s
        self.hostility: Optional[HostileGate] = (
            HostileGate(store.market_id, hostility)
            if hostility is not None and hostility.active
            else None
        )
        self.requests_served = 0

    @property
    def market_id(self) -> str:
        return self._store.market_id

    @property
    def store(self) -> MarketStore:
        return self._store

    @property
    def apk_quota_used(self) -> int:
        return self._apk_quota.used if self._apk_quota else 0

    @property
    def faults(self) -> FaultInjector:
        """The server's fault injector (counters + plan)."""
        return self._faults

    @property
    def web_available(self) -> bool:
        """Whether the market's web interface is still reachable."""
        profile = self._store.profile
        if profile.discontinued_at_second_crawl and self._clock.now >= HIAPK_SHUTDOWN_DAY:
            return False
        if profile.app_only_at_second_crawl and self._clock.now >= OPPO_WEB_SHUTDOWN_DAY:
            return False
        return True

    # -- checkpoint plumbing ----------------------------------------------

    def export_state(self) -> dict:
        """Serializable server-side state for the crawl journal.

        Fault injection depends on the per-server request ordinal and
        streak, and Google Play's download quota is cumulative; a
        resumed campaign restores all three so the remaining request
        stream sees exactly the responses the uninterrupted run did.
        """
        state = {
            "requests_served": self.requests_served,
            "faults": self._faults.export_state(),
            "quota_used": self._apk_quota.used if self._apk_quota else None,
        }
        if self.hostility is not None:
            state["hostility"] = self.hostility.export_state()
        return state

    def restore_state(self, state: dict) -> None:
        self.requests_served = int(state["requests_served"])
        self._faults.restore_state(state["faults"])
        if self._apk_quota is not None and state.get("quota_used") is not None:
            self._apk_quota.restore(int(state["quota_used"]))
        if self.hostility is not None and "hostility" in state:
            self.hostility.restore_state(state["hostility"])

    def _request_now(self, request: Request) -> float:
        """The request's time base: the client's lane-clock stamp.

        Lane clocks are what advance during a campaign (the shared
        campaign clock is frozen), so token expiry, velocity windows,
        and ban windows must be judged in the *client's* time for a
        tarpitted crawler to be able to wait its way back.  Falls back
        to the shared clock for bare requests (tests, legacy callers).
        """
        stamp = request.header("x-sim-time")
        return float(stamp) if stamp is not None else self._clock.now

    def handle(self, request: Request) -> Response:
        """Dispatch one request; the entry point clients are bound to."""
        self.requests_served += 1
        if self._latency_s:
            time.sleep(self._latency_s)
        if not self.web_available:
            return Response.not_found()
        fault = self._faults.inject(self.requests_served, now=self._clock.now)
        if fault is not None:
            return fault
        if self.hostility is None:
            return self._dispatch(request)
        now = self._request_now(request)
        denied = self.hostility.screen(request, now)
        if denied is not None:
            return denied
        if request.path == HostileGate.LOGIN_PATH:
            return self.hostility.login(request, now)
        return self.hostility.finalize(request.path, self._dispatch(request))

    def _dispatch(self, request: Request) -> Response:
        handler = getattr(self, "_endpoint_" + request.path.strip("/"), None)
        if handler is None:
            return Response.not_found()
        return handler(request)

    # -- endpoints ---------------------------------------------------------

    def _endpoint_search(self, request: Request) -> Response:
        query = request.param("q")
        if not query:
            return Response.not_found()
        listings = self._store.search(str(query), self._clock.now)
        return Response.json_ok([l.metadata() for l in listings])

    def _endpoint_app(self, request: Request) -> Response:
        package = request.param("package")
        listing = self._store.get(str(package), self._clock.now)
        if listing is None:
            return Response.not_found()
        return Response.json_ok(listing.metadata())

    def _endpoint_related(self, request: Request) -> Response:
        package = request.param("package")
        listings = self._store.related(str(package), self._clock.now)
        return Response.json_ok([l.metadata() for l in listings])

    def _endpoint_developer(self, request: Request) -> Response:
        name = request.param("name")
        listings = self._store.by_developer(str(name), self._clock.now)
        return Response.json_ok([l.metadata() for l in listings])

    def _endpoint_categories(self, request: Request) -> Response:
        return Response.json_ok(self._store.categories())

    def _endpoint_category(self, request: Request) -> Response:
        name = request.param("name")
        page = int(request.param("page", 0))
        listings = self._store.category_page(str(name), page, self._clock.now)
        return Response.json_ok([l.metadata() for l in listings])

    def _endpoint_index(self, request: Request) -> Response:
        index = int(request.param("i", -1))
        if index >= self._store.index_size:
            return Response.not_found()
        listing = self._store.by_index(index, self._clock.now)
        if listing is None:
            # The slot existed but the app was removed: markets answer
            # with an empty page rather than 404 (the index keeps growing).
            return Response.json_ok(None)
        return Response.json_ok(listing.metadata())

    def _endpoint_index_size(self, request: Request) -> Response:
        return Response.json_ok(self._store.index_size)

    def _endpoint_packages(self, request: Request) -> Response:
        """Paged bare package-name list (package-list-only markets).

        The one enumeration surface such markets offer: no metadata,
        just names — the crawler must ``/app`` each one afterwards.
        """
        gate = self.hostility
        if gate is None or not gate.policy.package_list_only:
            return Response.not_found()
        page = int(request.param("page", 0))
        if page < 0:
            return Response.not_found()
        size = gate.policy.package_page_size
        start = page * size
        total = self._store.index_size
        packages = []
        for index in range(start, min(start + size, total)):
            listing = self._store.by_index(index, self._clock.now)
            if listing is not None:
                packages.append(listing.package)
        return Response.json_ok({
            "packages": packages,
            "next": page + 1 if start + size < total else None,
        })

    def _endpoint_download(self, request: Request) -> Response:
        package = str(request.param("package"))
        if self._apk_quota is not None and not self._apk_quota.try_acquire():
            return Response.rate_limited(retry_after=30.0)
        blob = self._store.apk_bytes(package, self._clock.now)
        if blob is None:
            return Response.not_found()
        return Response.bytes_ok(blob)
