"""Long-running campaign service (``repro serve``).

The daemon face of the campaign layer: a stdlib-only HTTP JSON API in
front of the same content-addressed result store that ``campaign run``
uses.  Submissions are durable before they are acknowledged (crash-safe
spool, :mod:`~repro.sim.service.queue`), execution runs on the
campaign layer's lease-based worker pool (:mod:`~repro.sim.campaign.pool`,
the same engine as ``campaign run --jobs N``), and admission
is bounded by per-client token quotas plus a queue cap
(:mod:`~repro.sim.service.quota`) — heavy traffic degrades to HTTP 429
backpressure, never to lost or duplicated work.  The headline
invariant: ``kill -9`` the daemon mid-campaign, restart it on the same
cache dir, and every campaign completes bit-identical to a serial
``campaign run`` of the same grid.
"""

from repro.sim.service.api import (ApiError, CampaignService,
                                   default_service_host,
                                   default_service_port, make_server)
from repro.sim.service.queue import (QueueFull, SPOOL_OUTCOMES,
                                     SpoolQueue, default_queue_cap)
from repro.sim.service.quota import (QuotaTable, default_quota_burst,
                                     default_quota_refill)

__all__ = [
    "ApiError",
    "CampaignService",
    "QueueFull",
    "QuotaTable",
    "SPOOL_OUTCOMES",
    "SpoolQueue",
    "default_queue_cap",
    "default_quota_burst",
    "default_quota_refill",
    "default_service_host",
    "default_service_port",
    "make_server",
]
