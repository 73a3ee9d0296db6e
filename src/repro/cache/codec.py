"""The wrapped-entry codec: every tier encodes and decodes entries here.

An entry is ``pickle.dumps({"schema", "key", "payload"})``; the embedded
schema salt and key let any holder check a blob against its address.
Blobs also arrive from peers, so :func:`decode` resolves only classes
defined in ``repro``, numpy's array reconstructors and plain builtin
types: a ``__reduce__`` payload naming any other callable fails to load
instead of running.
"""

from __future__ import annotations

import io
import pickle
from typing import Any

__all__ = ["decode", "encode"]

_NUMPY_GLOBALS = frozenset(
    (module, name)
    for module in ("numpy.core.multiarray", "numpy._core.multiarray")
    for name in ("_reconstruct", "scalar")
) | {("numpy", "ndarray"), ("numpy", "dtype")}
_BUILTIN_TYPES = frozenset({"bytearray", "complex", "frozenset", "range", "set", "slice"})


class _EntryUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if (module == "builtins" and name in _BUILTIN_TYPES) or (module, name) in _NUMPY_GLOBALS:
            return super().find_class(module, name)
        if module.split(".")[0] == "repro" and "." not in name:
            found = super().find_class(module, name)
            # Only classes defined in repro: no functions, no re-exports.
            if isinstance(found, type) and found.__module__.split(".")[0] == "repro":
                return found
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
