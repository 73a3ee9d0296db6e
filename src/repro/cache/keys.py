"""Content-addressed cache keys: canonical serialisation + SHA-256.

A cache key must change whenever *anything* that determines a
measurement changes, and must be bit-stable across processes and hosts
for identical inputs.  Both properties come from hashing a canonical
JSON form of the inputs:

* dataclasses serialise field by field (covering every nested spec
  dataclass: caches, scratchpad, noise model, quirks, carveouts);
* enums serialise to their values, sets/frozensets to sorted lists,
  dicts with sorted stringified keys, tuples as lists;
* the JSON is emitted with sorted keys and no whitespace.

Every key additionally carries a schema-version salt
(:data:`SCHEMA_VERSION`): bumping it orphans every existing entry at
once, which is the only invalidation "protocol" the store needs when the
meaning of a cached payload changes (e.g. the report model gains a
field).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Iterable

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "canonicalize",
    "device_fingerprint",
    "digest",
    "report_key",
    "spec_fingerprint",
]

#: Salt mixed into every key.  Bump when the *payload* schema changes
#: (the report model or the tool state stored beside it) or when the
#: same inputs now measure different report bytes, so stale entries
#: become unreachable instead of unpicklable surprises or old answers.
#: 2: the ConstL1 latency probes 10 % inside the measured size.
SCHEMA_VERSION = 2


def _tool_version() -> str:
    """The package version, mixed into every key.

    A release that changes what a benchmark *measures* without touching
    the payload schema must not serve results computed by the old code:
    bumping the package version is enough to orphan every entry.
    Imported lazily — :mod:`repro` imports this package at init time.
    """
    from repro import __version__

    return __version__


def canonicalize(value: Any) -> Any:
    """Recursively convert ``value`` to canonical JSON-compatible types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return canonicalize(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            str(k): canonicalize(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays AND numpy scalars
        return canonicalize(value.tolist())
    raise TypeError(
        f"cannot canonicalise {type(value).__name__} for a cache key; "
        "generic reprs embed memory addresses and would silently key "
        "per-process (permanent misses)"
    )


def canonical_json(value: Any) -> str:
    """The canonical (sorted, whitespace-free) JSON form of ``value``."""
    return json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def spec_fingerprint(spec: Any) -> str:
    """Content fingerprint of a :class:`~repro.gpuspec.spec.GPUSpec`."""
    return digest(spec)


def device_fingerprint(device: Any) -> dict[str, Any]:
    """Everything about a simulated device that determines measurements.

    The spec alone is not enough: the noise stream (seed, contention),
    the L1/shared carveout configuration and an active MIG profile all
    change what the benchmarks observe.  The mutable run state is
    included too: a device that already executed work has advanced its
    noise RNGs and time accounting, so measuring on it again produces
    *different* results than a fresh same-seed device; keying only on
    (spec, seed) would let such a run poison the pristine key.
    """
    return {
        "spec": canonicalize(device.spec),
        "seed": int(device.seed),
        "cache_config": device.cache_config,
        "contention": float(device.noise.contention_factor),
        "mig_profile": device.mig.profile,
        "op_serial": int(device.op_serial),
        "total_loads": int(device.total_loads),
        "elapsed_seconds": float(device.elapsed_seconds()),
        "rng_state": canonicalize(device.rng.bit_generator.state),
        "quirk_rng_state": canonicalize(device._quirk_rng.bit_generator.state),
    }


def report_key(
    device: Any,
    config: Any,
    targets: Iterable[str],
    extensions: Iterable[str],
    validate: bool,
    version: int = SCHEMA_VERSION,
) -> str:
    """Key of one whole ``MT4G.discover`` result."""
    return digest(
        {
            "kind": "report",
            "schema": int(version),
            "tool_version": _tool_version(),
            "device": device_fingerprint(device),
            "config": canonicalize(config),
            "targets": sorted(targets),
            "extensions": sorted(extensions),
            "validate": bool(validate),
        }
    )
