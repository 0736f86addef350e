"""The asyncio market serving tier.

:class:`~repro.serving.tier.ServingTier` promotes the in-process
market fleet to real socket listeners (one per market) speaking the
:mod:`repro.net.transport` frame protocol.  Crawl lanes reach it
through blocking :class:`~repro.net.transport.SocketTransport`
connections; asyncio lives only on the tier's own listener loop.
"""

from repro.serving.tier import ServingTier

__all__ = ["ServingTier"]
