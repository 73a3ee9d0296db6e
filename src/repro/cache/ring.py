"""Consistent-hash routing of content-addressed keys across instances.

One ``mt4g serve`` instance owns one disk store; N instances serving one
fleet need an answer to "which instance owns this report key?" that
every instance computes identically and that barely moves when the
member list changes.  That is textbook consistent hashing, and the
SHA-256 report key the store already uses is an ideal ring position:
uniformly distributed by construction, stable across processes and
hosts.

Each member is placed on the ring at :data:`DEFAULT_REPLICAS` virtual
positions (hash of ``"<node>|vnode|<i>"``), a key lands at the position
derived from its own digest, and the key's **owner** is the first
member clockwise from there.  Adding or removing one member therefore
remaps only ~1/N of the keyspace — the property that makes rolling a
new replica into a serving fleet cheap.

The routing contract the serving layer builds on:

* every instance constructs its ring from the *same member URLs*
  (normalised by :func:`normalize_node`), so ``owner(key)`` agrees
  fleet-wide without any coordination service;
* :meth:`HashRing.owner` names the instance that should *discover* a
  cold key (the cross-instance single-flight anchor);
* :meth:`HashRing.peer_target` names the first member other than self in
  the key's preference order — where a read-only replica pulls a miss
  from, and where a non-owner proxies a discovery to.
"""

from __future__ import annotations

import bisect
import hashlib
import re
from urllib.parse import urlsplit, urlunsplit

__all__ = ["DEFAULT_REPLICAS", "HashRing", "normalize_node"]

#: Virtual nodes per member.  Enough that a two-member ring splits the
#: keyspace near 50/50 instead of wherever two single hashes landed.
DEFAULT_REPLICAS = 64

_HEX_KEY = re.compile(r"^[0-9a-f]{64}$")


def normalize_node(url: str) -> str:
    """Canonical form of a member URL (the ring's identity for it).

    Ring agreement requires byte-identical member strings on every
    instance, so cosmetic differences must not split the ring: the
    scheme and host lowercase, the default scheme is ``http``, and any
    trailing slash goes.

    >>> normalize_node("HTTP://Host:8734/")
    'http://host:8734'
    >>> normalize_node("host:8734")
    'http://host:8734'
    """
    url = url.strip()
    if not url:
        raise ValueError("a ring member URL cannot be empty")
    if "//" not in url:
        url = f"http://{url}"
    parts = urlsplit(url)
    if not parts.netloc:
        raise ValueError(f"not a usable ring member URL: {url!r}")
    return urlunsplit(
        (parts.scheme.lower() or "http", parts.netloc.lower(), parts.path.rstrip("/"), "", "")
    )


def _position(material: str) -> int:
    """Ring position of arbitrary material (64-bit hash prefix)."""
    digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


def _key_position(key: str) -> int:
    """Ring position of a cache key.

    Report keys are already SHA-256 hex, so their own leading bytes are
    the position (no second hash); anything else is hashed first.
    """
    if _HEX_KEY.match(key):
        return int(key[:16], 16)
    return _position(key)


class HashRing:
    """Deterministic key → instance routing over a fixed member list.

    >>> ring = HashRing("http://a:1", ["http://b:2"])
    >>> ring.self_node
    'http://a:1'
    >>> sorted(ring.nodes)
    ['http://a:1', 'http://b:2']
    >>> ring.owner("ab" * 32) in ring.nodes
    True
    >>> HashRing("http://b:2", ["http://a:1"]).owner("ab" * 32) \
        == ring.owner("ab" * 32)  # every instance routes identically
    True
    """

    def __init__(
        self,
        self_node: str,
        peers: "list[str] | tuple[str, ...]" = (),
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.self_node = normalize_node(self_node)
        members = {self.self_node}
        members.update(normalize_node(p) for p in peers)
        self.nodes: tuple[str, ...] = tuple(sorted(members))
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for i in range(replicas):
                points.append((_position(f"{node}|vnode|{i}"), node))
        # A position collision between two members would make the ring
        # order depend on sort tie-breaking; the node string breaks the
        # tie deterministically (and identically on every instance).
        points.sort()
        self._points = points
        self._positions = [p for p, _ in points]

    def owner(self, key: str) -> str:
        """The member that owns ``key`` — where cold discoveries run."""
        return self.preference(key)[0]

    def preference(self, key: str, count: int | None = None) -> list[str]:
        """The first ``count`` *distinct* members clockwise from ``key``.

        Index 0 is the owner; the rest are the successors a fetch falls
        back to (and where replicated writes would land).
        """
        wanted = len(self.nodes) if count is None else min(count, len(self.nodes))
        start = bisect.bisect_right(self._positions, _key_position(key))
        out: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in out:
                out.append(node)
                if len(out) >= wanted:
                    break
        return out

    def peer_target(self, key: str) -> str | None:
        """The first member other than self in ``key``'s preference order.

        Where this instance goes for the key when it cannot (or should
        not) serve it locally: the owner when the owner is remote, else
        the owner's first successor.  None on a single-member ring.
        """
        for node in self.preference(key):
            if node != self.self_node:
                return node
        return None
