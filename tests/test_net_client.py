"""Tests for the retrying HTTP client and retry policy."""

import pytest

from repro.net.client import (
    MAX_AUTH_RETRIES,
    RATE_LIMIT_JITTER_MAX,
    ClientStats,
    HttpClient,
)
from repro.net.credentials import CredentialManager
from repro.net.http import (
    AuthError,
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
from repro.util.simtime import SimClock


class TestRetryPolicy:
    def test_exponential(self):
        policy = RetryPolicy(max_retries=3, base_delay=1.0, multiplier=2.0, max_delay=100.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 4.0

    def test_capped(self):
        policy = RetryPolicy(max_retries=5, base_delay=1.0, multiplier=10.0, max_delay=5.0)
        assert policy.delay(3) == 5.0

    def test_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_schedule_length(self):
        assert len(list(RetryPolicy(max_retries=4).delays())) == 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0)


def _handler_sequence(responses):
    """A handler returning canned responses in order (last one repeats)."""
    state = {"i": 0}

    def handle(request: Request) -> Response:
        i = min(state["i"], len(responses) - 1)
        state["i"] += 1
        return responses[i]

    return handle


def _auth_server(app_responses):
    """``/login`` issues ``tok1``, ``tok2``, ...; other paths answer from
    the script.  Returns the handler and the tokens the app path saw."""
    app = _handler_sequence(app_responses)
    logins = []
    seen = []

    def handle(request: Request) -> Response:
        if request.path == "/login":
            logins.append(request)
            return Response.json_ok({"token": f"tok{len(logins)}", "ttl": 10.0})
        seen.append(request.header("authorization"))
        return app(request)

    return handle, seen


class TestHttpClient:
    def test_ok(self):
        client = HttpClient(_handler_sequence([Response.json_ok(42)]), SimClock())
        assert client.get_json("/x") == 42
        assert client.stats.requests == 1

    def test_not_found_raises(self):
        client = HttpClient(_handler_sequence([Response.not_found()]), SimClock())
        with pytest.raises(NotFoundError):
            client.get_json("/x")
        assert client.stats.not_found == 1

    def test_rate_limit_waits_then_succeeds(self):
        clock = SimClock()
        start = clock.now
        client = HttpClient(
            _handler_sequence([Response.rate_limited(0.5), Response.json_ok("ok")]),
            clock,
            max_rate_limit_waits=2,
        )
        assert client.get_json("/x") == "ok"
        # Slept retry_after stretched by the deterministic jitter.
        slept = clock.now - start
        assert 0.5 <= slept <= 0.5 * (1 + RATE_LIMIT_JITTER_MAX)
        assert client.stats.rate_limited == 1

    def test_rate_limit_budget_exhausted(self):
        responses = [Response.rate_limited(0.1)] * 10
        client = HttpClient(
            _handler_sequence(responses), SimClock(), max_rate_limit_waits=1
        )
        with pytest.raises(RateLimitedError):
            client.get_json("/x")
        assert client.stats.rate_limit_aborts == 1

    def test_zero_waits_raises_immediately(self):
        client = HttpClient(
            _handler_sequence([Response.rate_limited(5.0)]),
            SimClock(),
            max_rate_limit_waits=0,
        )
        with pytest.raises(RateLimitedError):
            client.get_json("/x")
        assert client.stats.requests == 1

    def test_server_error_retried(self):
        client = HttpClient(
            _handler_sequence([Response(status=500), Response.json_ok("up")]),
            SimClock(),
        )
        assert client.get_json("/x") == "up"
        assert client.stats.retries == 1

    def test_server_error_exhausts_retries(self):
        client = HttpClient(
            _handler_sequence([Response(status=500)]),
            SimClock(),
            retry_policy=RetryPolicy(max_retries=2),
        )
        with pytest.raises(ServerError):
            client.get_json("/x")
        assert client.stats.requests == 3  # initial + 2 retries

    def test_timeout_retried(self):
        client = HttpClient(
            _handler_sequence([Response.timeout(), Response.json_ok("up")]),
            SimClock(),
        )
        assert client.get_json("/x") == "up"
        assert client.stats.timeouts == 1
        assert client.stats.retries == 1

    def test_timeout_exhausts_retries(self):
        client = HttpClient(
            _handler_sequence([Response.timeout()]),
            SimClock(),
            retry_policy=RetryPolicy(max_retries=2),
        )
        with pytest.raises(RequestTimeoutError):
            client.get_json("/x")
        assert client.stats.requests == 3
        assert client.stats.timeouts == 3

    def test_malformed_payload_retried(self):
        client = HttpClient(
            _handler_sequence([Response.garbled(), Response.json_ok("clean")]),
            SimClock(),
        )
        assert client.get_json("/x") == "clean"
        assert client.stats.malformed == 1

    def test_malformed_payload_exhausts_retries(self):
        client = HttpClient(
            _handler_sequence([Response.garbled()]),
            SimClock(),
            retry_policy=RetryPolicy(max_retries=1),
        )
        with pytest.raises(MalformedPayloadError):
            client.get_json("/x")

    def test_rate_limit_wait_cap_raises_immediately(self):
        # A multi-day retry_after (Google Play's download quota) is a
        # hard limit: surface it instead of sleeping the campaign away.
        clock = SimClock()
        start = clock.now
        client = HttpClient(
            _handler_sequence([Response.rate_limited(30.0)]),
            clock,
            max_rate_limit_waits=5,
            max_rate_limit_wait=0.5,
        )
        with pytest.raises(RateLimitedError):
            client.get_json("/download")
        assert client.stats.requests == 1
        assert clock.now == start  # no sleep happened

    def test_rate_limit_wait_cap_allows_short_hints(self):
        clock = SimClock()
        start = clock.now
        client = HttpClient(
            _handler_sequence([Response.rate_limited(0.01), Response.json_ok("ok")]),
            clock,
            max_rate_limit_waits=2,
            max_rate_limit_wait=0.5,
        )
        assert client.get_json("/x") == "ok"
        assert clock.now > start

    def test_jitter_deterministic_and_desynchronized(self):
        def run(jitter_key):
            clock = SimClock()
            start = clock.now
            client = HttpClient(
                _handler_sequence([Response.rate_limited(1.0), Response.json_ok("ok")]),
                clock,
                max_rate_limit_waits=1,
                jitter_key=jitter_key,
            )
            client.get_json("/x")
            return clock.now - start

        # Same key reproduces the same sleep; distinct keys spread out.
        assert run("tencent") == run("tencent")
        sleeps = {run(key) for key in ("tencent", "baidu", "mi", "huawei", "oppo")}
        assert len(sleeps) > 1
        assert all(1.0 <= s <= 1.0 + RATE_LIMIT_JITTER_MAX for s in sleeps)

    def test_get_bytes(self):
        client = HttpClient(_handler_sequence([Response.bytes_ok(b"apk")]), SimClock())
        assert client.get_bytes("/download") == b"apk"

    def test_get_bytes_missing_body(self):
        client = HttpClient(_handler_sequence([Response.json_ok(None)]), SimClock())
        with pytest.raises(ServerError):
            client.get_bytes("/download")

    def test_relogin_after_401_succeeds(self):
        handle, seen = _auth_server([Response.unauthorized(), Response.json_ok("data")])
        client = HttpClient(handle, SimClock(), credentials=CredentialManager("m"))
        assert client.get_json("/app") == "data"
        # The 401 dropped tok1; the retry carried a freshly issued token.
        assert seen == ["tok1", "tok2"]
        assert client.stats.logins == 2
        assert client.stats.token_refreshes == 1
        assert client.stats.failures == 0

    def test_auth_error_once_relogin_budget_exhausted(self):
        handle, seen = _auth_server([Response.unauthorized()])
        client = HttpClient(handle, SimClock(), credentials=CredentialManager("m"))
        with pytest.raises(AuthError):
            client.get_json("/app")
        assert len(seen) == MAX_AUTH_RETRIES + 1
        assert client.stats.logins == MAX_AUTH_RETRIES + 1
        assert client.stats.failures == 1


def _full_stats() -> ClientStats:
    stats = ClientStats()
    for field, value in dict(
        requests=10, retries=3, rate_limited=2, timeouts=1, malformed=1,
        not_found=4, failures=2, rate_limit_aborts=1, breaker_fast_fails=1,
        sim_days_backoff=0.75,
    ).items():
        setattr(stats, field, value)
    return stats


class TestClientStats:
    def test_export_state_round_trips(self):
        stats = _full_stats()
        state = stats.export_state()
        # Lane states journaled before the ``cancelled`` counter was
        # removed still carry it; restoring one must ignore it.
        older = {**state, "cancelled": 0}
        for saved in (state, older):
            restored = ClientStats()
            restored.restore_state(saved)
            assert restored.export_state() == state
            assert restored.requests == 10
            assert restored.sim_days_backoff == 0.75

    def test_export_state_is_json_plain(self):
        import json

        state = _full_stats().export_state()
        restored = ClientStats()
        restored.restore_state(json.loads(json.dumps(state)))
        assert restored.export_state() == _full_stats().export_state()

    def test_counters_are_registry_series(self):
        registry = MetricsRegistry()
        stats = ClientStats(registry, campaign="c", market="m")
        stats.requests += 2
        stats.sim_days_backoff += 0.5
        assert registry.counter("crawl_requests_total", campaign="c", market="m").value == 2
        assert registry.counter(
            "crawl_backoff_sim_days_total", campaign="c", market="m"
        ).value == 0.5

    @pytest.mark.parametrize("rebind", [False, True])
    def test_jitter_ordinal_outlives_rebinding(self, rebind):
        # Rate-limit jitter is keyed by ``sent``, every request the
        # client ever sent; rebinding its stats (a new campaign) resets
        # ``stats.requests`` but must not move the jitter.
        ok = Response.json_ok({})
        clock = SimClock(now=0.0)
        client = HttpClient(
            _handler_sequence([ok, ok, Response.rate_limited(0.1), ok]), clock,
            jitter_key="m",
        )
        client.get_json("/app")
        if rebind:
            client.stats = ClientStats()
        client.get_json("/app")
        client.get_json("/app")
        assert client.sent == 4
        assert client.stats.requests == (3 if rebind else 4)
        assert clock.now == pytest.approx(0.1 * (1 + RATE_LIMIT_JITTER_MAX * 0.249))

    def test_not_found_is_not_a_failure(self):
        client = HttpClient(_handler_sequence([Response.not_found()]), SimClock())
        with pytest.raises(NotFoundError):
            client.request("/app")
        assert client.stats.not_found == 1
        assert client.stats.failures == 0
