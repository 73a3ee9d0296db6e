"""The wrapped-entry codec: every tier encodes and decodes entries here.

An entry is ``pickle.dumps({"schema", "key", "payload"})``; the embedded
schema salt and key let any holder check a blob against its address.
Blobs also arrive from peers, so :func:`decode` resolves only the
classes a report entry pickles: the report model and the validation
records it carries.  Unpickling one of them calls no constructor (a
dataclass is rebuilt from its ``__dict__``, an enum member is looked
up), and a payload naming any other global fails to load instead of
building or running it.
"""

from __future__ import annotations

import io
import pickle
from typing import Any

__all__ = ["decode", "encode"]

#: Every global a report entry names (``MT4G.discover`` stores them).  A
#: class added to the report model must be added here too, or its
#: entries stop decoding and every read of them is a miss.
_REPORT_CLASSES = frozenset(
    {
        ("repro.core.report", "TopologyReport"),
        ("repro.core.report", "GeneralReport"),
        ("repro.core.report", "ComputeReport"),
        ("repro.core.report", "MemoryElementReport"),
        ("repro.core.report", "AttributeValue"),
        ("repro.core.report", "RuntimeReport"),
        ("repro.core.benchmarks.base", "Source"),
        ("repro.validate.validator", "ValidationReport"),
        ("repro.validate.validator", "CrossCheck"),
        ("repro.validate.validator", "EscalationRecord"),
        ("repro.validate.validator", "Recalibration"),
        ("repro.validate.checks", "CheckResult"),
    }
)


class _EntryUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if (module, name) in _REPORT_CLASSES:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(f"entry references forbidden global {module}.{name}")


def encode(key: str, payload: Any, version: int) -> bytes:
    return pickle.dumps(
        {"schema": version, "key": key, "payload": payload},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode(key: str, blob: bytes, version: int) -> Any:
    """The payload of ``blob``; raises unless it decodes and matches its address."""
    wrapped = _EntryUnpickler(io.BytesIO(blob)).load()
    if (
        not isinstance(wrapped, dict)
        or wrapped.get("schema") != version
        or wrapped.get("key") != key
    ):
        raise ValueError("cache entry does not match its address")
    return wrapped["payload"]
