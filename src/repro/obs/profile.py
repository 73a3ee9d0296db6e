"""Discovery profile: fold phase spans into a self-time table.

Discovery phases (``MT4G._phase``) are ``discover.phase`` trace spans
whose attrs name the element and phase and carry the p-chase runner's
counter deltas over the span (runs, kernel seconds).  Span
numbers are *totals* — a phase includes the phases nested in it — so the
table reports self values: own minus the sum over direct child phases.
The span the top-level phases hang from (``mt4g --profile``'s root, or a
pool worker's ``worker.discover``) becomes the root row, holding the
discovery time no phase claims; the rows therefore sum to the root's
wall time by construction.
"""

from __future__ import annotations

from typing import Any

__all__ = ["fold"]


def fold(spans: list[dict]) -> dict[str, Any]:
    """``{"root", "wall_s", "rows"}`` from one discovery's spans.

    Each row is ``{"element", "phase", "calls", "wall_s", <attr>...}``
    with self values, one per (element, phase), largest ``wall_s``
    first.  Non-phase spans (store reads, retries) stay inside their
    enclosing row.  Raises ``ValueError`` unless the phases hang from
    exactly one root span present in ``spans``.
    """
    phases = {
        s["span_id"]: s for s in spans if "phase" in (s.get("attrs") or {})
    }
    parents = {s["parent_id"] for s in phases.values()} - phases.keys()
    roots = [s for s in spans if s["span_id"] in parents]
    if len(parents) != 1 or len(roots) != 1:
        raise ValueError(f"phase spans need one recorded root, found {len(roots)}")
    (root,) = roots

    def totals(span: dict) -> dict[str, float]:
        values = {"wall_s": span["duration_ms"] / 1e3}
        for k, v in (span.get("attrs") or {}).items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                values[k] = v
        return values

    own = {root["span_id"]: totals(root)}
    own.update((sid, totals(s)) for sid, s in phases.items())
    selves = {sid: dict(values) for sid, values in own.items()}
    for sid, span in phases.items():
        parent = selves[span["parent_id"]]
        for k, v in own[sid].items():
            if k in parent:
                parent[k] -= v

    rows: dict[tuple[str, str], dict[str, Any]] = {}
    for sid, values in selves.items():
        if sid == root["span_id"]:
            key = (root["name"], "(self)")
        else:
            attrs = phases[sid]["attrs"]
            key = (attrs["element"], attrs["phase"])
        row = rows.setdefault(key, {"element": key[0], "phase": key[1], "calls": 0})
        row["calls"] += 1
        for k, v in values.items():
            row[k] = row.get(k, 0) + v
    return {
        "root": root["name"],
        "wall_s": own[root["span_id"]]["wall_s"],
        "rows": sorted(rows.values(), key=lambda r: r["wall_s"], reverse=True),
    }
