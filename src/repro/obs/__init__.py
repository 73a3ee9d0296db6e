"""Observability plane: tracing and structured logs.

Two off-by-default instruments over the discovery/serving stack:

* :mod:`repro.obs.trace` — W3C ``traceparent`` request tracing with a
  bounded in-memory ring of completed spans (served at ``/traces``),
  propagated across pool workers and ring peers so one cold proxied
  request is one trace.  Discovery phases are spans too;
  :func:`repro.obs.profile.fold` turns them into the self-time table
  ``mt4g --profile`` prints;
* :mod:`repro.obs.accesslog` — structured per-request access log
  (``mt4g serve --log-format json|text``).

Everything here follows the ``faults.inject()`` contract: when not
activated, instrumented hot paths pay a single ``None`` check and
allocate nothing, and no instrument ever alters served report bytes.
"""

from repro.obs.accesslog import AccessLog
from repro.obs.trace import (
    CURRENT,
    SpanContext,
    Tracer,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)

__all__ = [
    "AccessLog",
    "CURRENT",
    "SpanContext",
    "Tracer",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
]
