"""Deterministic random-number streams.

Every stochastic component of the pipeline draws from its own named
child stream so that adding randomness to one component never perturbs
another.  A ``RngFactory`` is constructed once per study from the study
seed; components ask for streams by name.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np

__all__ = ["RngFactory", "choice_cdf", "stable_hash32", "stable_hash64"]


def stable_hash32(*parts: object) -> int:
    """Return a stable 32-bit hash of the given parts.

    Unlike the builtin ``hash``, this is stable across interpreter runs
    (``PYTHONHASHSEED`` does not affect it), which the pipeline relies on
    for reproducible feature hashes and signatures.
    """
    return stable_hash64(*parts) & 0xFFFFFFFF


def stable_hash64(*parts: object) -> int:
    """Return a stable 64-bit hash of the given parts."""
    key = "\x1f".join(map(repr, parts)).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def choice_cdf(weights) -> List[float]:
    """The table a weighted ``rng.choice`` searches, built once.

    ``values[bisect_right(cdf, rng.random())]`` returns what
    ``rng.choice(values, p=w / w.sum())`` returns and consumes the same
    single ``random()`` draw: numpy's weighted pick is ``cdf =
    p.cumsum(); cdf /= cdf[-1]`` and a right-sided search of one uniform
    draw.  Building the table once skips numpy's per-call validation of
    ``p``; ``tests/test_util_rng.py`` holds the equivalence.
    """
    w = np.asarray(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class RngFactory:
    """Factory of independent, reproducible ``numpy.random.Generator`` streams.

    >>> rngs = RngFactory(seed=7)
    >>> a = rngs.stream("apps")
    >>> b = rngs.stream("apps")
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, *name: object) -> np.random.Generator:
        """Return a fresh generator for the named component.

        Calling ``stream`` twice with the same name yields generators in
        identical states; distinct names yield statistically independent
        streams.
        """
        child = stable_hash64(self._seed, *name)
        return np.random.default_rng(child)

    def child(self, *name: object) -> "RngFactory":
        """Return a derived factory namespaced under ``name``."""
        return RngFactory(stable_hash64(self._seed, "child", *name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self._seed})"
