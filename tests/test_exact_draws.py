"""The exact-draw rewrites behind world generation's fast path.

Body sampling reads precomputed tables and batches same-kind draws; each
rewrite is only sound if it returns what the numpy call it replaced
returned *and* leaves the generator in the same state (DESIGN.md lists
the rules).  These properties hold each rule by name, over seeds and
over every weight table the samplers use, so a numpy upgrade that breaks
one fails here rather than as an unexplained world-digest change.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.permissions import (
    DANGEROUS_PERMISSIONS,
    NORMAL_PERMISSIONS,
    platform_spec,
)
from repro.ecosystem import calibration, sharding
from repro.ecosystem.apps import generate_own_code
from repro.ecosystem.libraries import default_catalog
from repro.ecosystem.sharding import BodySampler, downloads_for_percentile
from repro.markets.categories import CANONICAL_WEIGHTS, VENDOR_WEIGHTS
from repro.markets.profiles import ALL_MARKET_IDS, DOWNLOAD_BIN_EDGES, get_profile
from repro.util.rng import choice_cdf, stable_hash64

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


def _positive(weights):
    return {k: w for k, w in weights.items() if w > 0}


#: Every weight table a sampler picks from: ``(values, weights)`` as the
#: calibration source states them, and the ``(values, cdf)`` the sampler
#: actually bisects.
_SAMPLER = BodySampler(default_catalog(), ["Pool Name"])
TABLES = {
    "release-year-global": (dict(calibration._GP_YEAR_WEIGHTS), calibration._GP_YEARS),
    "release-year-china": (dict(calibration._CN_YEAR_WEIGHTS), calibration._CN_YEARS),
    **{
        f"min-sdk-{scope}": (
            dict(calibration._MIN_SDK_BY_SCOPE[scope]),
            calibration._MIN_SDK_TABLES[scope],
        )
        for scope in ("china", "mixed", "global")
    },
    "overprivilege-count": (
        dict(enumerate(calibration._OVERPRIV_COUNT_WEIGHTS, start=1)),
        (tuple(range(1, 11)), calibration._OVERPRIV_COUNT_CDF),
    ),
    "overprivilege-permission": (
        calibration.OVERPRIV_PERMISSION_WEIGHTS,
        (sharding._OVERPRIV_PERMS, sharding._OVERPRIV_CDF),
    ),
    "category-canonical": (_positive(CANONICAL_WEIGHTS), _SAMPLER._categories[False]),
    "category-vendor": (_positive(VENDOR_WEIGHTS), _SAMPLER._categories[True]),
}


def _source(name):
    weights, table = TABLES[name]
    return list(weights), np.asarray(list(weights.values()), dtype=float), table


@pytest.mark.parametrize("name", sorted(TABLES))
def test_tables_are_the_source_weights(name):
    values, weights, (table_values, cdf) = _source(name)
    assert list(table_values) == values
    assert cdf == choice_cdf(weights)
    assert cdf[-1] == 1.0


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, name=st.sampled_from(sorted(TABLES)), picks=st.integers(1, 12))
def test_cdf_pick_is_weighted_choice(seed, name, picks):
    values, weights, (table_values, cdf) = _source(name)
    reference = np.random.default_rng(seed)
    fast = np.random.default_rng(seed)
    for _ in range(picks):
        expected = reference.choice(values, p=weights / weights.sum())
        assert table_values[bisect_right(cdf, fast.random())] == expected
    assert fast.bit_generator.state == reference.bit_generator.state


def _after_prefix(seed, prefix):
    # An odd number of 32-bit draws leaves half a word buffered in the
    # bit generator, the state a batched draw must also pick up from.
    rng = np.random.default_rng(seed)
    for _ in range(prefix):
        rng.integers(0, 7)
    return rng


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, prefix=st.integers(0, 3), k=st.integers(0, 40))
def test_sized_random_is_scalar_loop(seed, prefix, k):
    scalar = _after_prefix(seed, prefix)
    sized = _after_prefix(seed, prefix)
    expected = [scalar.random() for _ in range(k)]
    assert sized.random(k).tolist() == expected
    assert sized.bit_generator.state == scalar.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    prefix=st.integers(0, 3),
    k=st.integers(0, 40),
    lo=st.integers(-1000, 1000),
    span=st.one_of(st.integers(1, 300), st.integers(1, 2**40)),
)
def test_sized_integers_is_scalar_loop(seed, prefix, k, lo, span):
    scalar = _after_prefix(seed, prefix)
    sized = _after_prefix(seed, prefix)
    expected = [int(scalar.integers(lo, lo + span)) for _ in range(k)]
    assert sized.integers(lo, lo + span, size=k).tolist() == expected
    assert sized.bit_generator.state == scalar.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, lo=st.integers(0, 5000), data=st.data())
def test_choice_of_range_is_offset_choice(seed, lo, data):
    span = data.draw(st.one_of(st.integers(1, 200), st.integers(10_001, 20_000)))
    n = data.draw(st.integers(1, min(span, 60)))
    reference = np.random.default_rng(seed)
    fast = np.random.default_rng(seed)
    expected = reference.choice(np.arange(lo, lo + span), n, replace=False)
    assert (fast.choice(span, n, replace=False) + lo).tolist() == expected.tolist()
    assert fast.bit_generator.state == reference.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    seed=SEEDS,
    values=st.sampled_from([DANGEROUS_PERMISSIONS, NORMAL_PERMISSIONS]),
    data=st.data(),
)
def test_choice_of_tuple_is_indexed_choice(seed, values, data):
    n = data.draw(st.integers(1, len(values)))
    reference = np.random.default_rng(seed)
    fast = np.random.default_rng(seed)
    expected = reference.choice(values, size=n, replace=False).tolist()
    picked = fast.choice(len(values), size=n, replace=False).tolist()
    assert [values[i] for i in picked] == expected
    assert fast.bit_generator.state == reference.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**62 - 1), draw_seed=SEEDS)
def test_own_code_blocks_are_stable_hashes(seed, draw_seed):
    code = generate_own_code(
        np.random.default_rng(draw_seed), platform_spec(), "com.a", (),
        template_seed=seed,
    )
    assert code.blocks == tuple(
        stable_hash64("ownblock", seed, i) & 0xFFFFFFFF
        for i in range(len(code.blocks))
    )


@settings(max_examples=200, deadline=None)
@given(markets=st.lists(st.sampled_from(ALL_MARKET_IDS), min_size=1, unique=True))
def test_market_mean_is_numpy_mean(markets):
    for attr in ("tpl_presence", "tpl_avg_count"):
        values = {m: getattr(get_profile(m), attr) for m in ALL_MARKET_IDS}
        expected = float(np.mean([values[m] for m in markets]))
        assert BodySampler._market_mean(values, markets) == expected


def _downloads_reference(rng, profile, percentile):
    """The per-call numpy formulation the download table replaced."""
    shares = np.asarray(profile.download_bin_shares, dtype=float)
    cdf = np.cumsum(shares / shares.sum())
    bin_idx = min(int(np.searchsorted(cdf, percentile, side="right")), len(shares) - 1)
    lo = DOWNLOAD_BIN_EDGES[bin_idx]
    hi = (DOWNLOAD_BIN_EDGES[bin_idx + 1]
          if bin_idx + 1 < len(DOWNLOAD_BIN_EDGES) else 5_000_000_000)
    if lo == 0:
        return int(rng.integers(0, 10))
    bin_lo_p = cdf[bin_idx - 1] if bin_idx > 0 else 0.0
    span = max(cdf[bin_idx] - bin_lo_p, 1e-9)
    within = min(1.0, max(0.0, (percentile - bin_lo_p) / span))
    position = 0.7 * within + 0.3 * rng.random()
    return int(10 ** (np.log10(lo) + (np.log10(hi) - np.log10(lo)) * position))


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    market=st.sampled_from([m for m in ALL_MARKET_IDS if get_profile(m).reports_downloads]),
    percentile=st.floats(0.0, 1.0, exclude_max=True),
)
def test_download_table_is_per_call_formula(seed, market, percentile):
    profile = get_profile(market)
    reference = np.random.default_rng(seed)
    fast = np.random.default_rng(seed)
    expected = _downloads_reference(reference, profile, percentile)
    assert downloads_for_percentile(fast, profile, percentile) == expected
    assert fast.bit_generator.state == reference.bit_generator.state
