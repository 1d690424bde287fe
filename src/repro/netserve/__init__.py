"""Multi-client network serving: TCP frontend with tenancy + admission.

Layers (bottom-up):

* :mod:`repro.netserve.protocol` — the transport-agnostic request
  language: parse/dispatch one JSON request against
  :class:`FaultAnalysisService`.  The stdin loop
  (``python -m repro serve``) and the socket server share this core.
* :mod:`repro.netserve.tenants` — API keys resolving to per-tenant
  token buckets and concurrency quotas.
* :mod:`repro.netserve.admission` — the request gate: bounded inflight,
  queue-depth backpressure, deadline-headroom checks; rejects with a
  structured ``retry_after_s`` instead of queueing.
* :mod:`repro.netserve.server` — the threaded TCP server tying the
  layers together, with graceful drain on SIGTERM.
"""

from repro.netserve.protocol import (
    CODE_AUTH,
    CODE_BAD_REQUEST,
    CODE_DRAINING,
    CODE_INTERNAL,
    CODE_UNAVAILABLE,
    RETRYABLE_CODES,
    dispatch_line,
    error_envelope,
    handle_request,
    serve_loop,
)
from repro.netserve.tenants import (
    TenantRegistry,
    TenantSpec,
    TenantState,
    TokenBucket,
)
from repro.netserve.admission import (
    REJECT_CODES,
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    AdmissionTicket,
)
from repro.netserve.server import NetServeConfig, TeleServer

__all__ = [
    "CODE_AUTH",
    "CODE_BAD_REQUEST",
    "CODE_DRAINING",
    "CODE_INTERNAL",
    "CODE_UNAVAILABLE",
    "RETRYABLE_CODES",
    "REJECT_CODES",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTicket",
    "NetServeConfig",
    "TeleServer",
    "TenantRegistry",
    "TenantSpec",
    "TenantState",
    "TokenBucket",
    "dispatch_line",
    "error_envelope",
    "handle_request",
    "serve_loop",
]
