"""Sectored, set-associative, LRU cache model with a batch/analytic engine.

This single class produces every memory-hierarchy effect the paper's
microbenchmarks (Section IV) probe for:

* **capacity cliffs** — a cyclic pointer-chase over an array larger than
  the cache thrashes the over-subscribed sets under LRU, so misses appear
  exactly past the capacity boundary (Fig. 1);
* **fetch granularity** — a cache line is divided into *sectors*; a miss
  fetches only the accessed sector (per-sector valid bits), so strides
  below the sector size produce intra-sector hits (Section IV-D);
* **cache line size** — strides above the line size skip whole lines,
  making the cache appear larger (Section IV-E);
* **cooperative eviction** — two actors filling the same physical cache
  evict each other; actors on distinct segments do not (Sections IV-F/G/H).

Performance design (the discovery pipeline runs tens of thousands of
p-chase passes, some over 50 MB L2 footprints):

* state is a pair of ``(num_sets, ways)`` NumPy matrices (tags and
  per-line sector masks), each row ordered LRU -> MRU with empty slots
  (``-1``) packed at the LRU side;
* :meth:`flush` is O(1): rows carry a generation stamp and are lazily
  reset on first touch after a flush;
* :meth:`warm_fixed_point` — flush plus one warm pass over a strided
  ring, every fresh p-chase's preamble — is O(1) too: it records a
  deferred descriptor, and rows are installed only if something reads
  them;
* :meth:`warm_cyclic` installs the *end state* of a full cyclic pass
  analytically — for uniform strided rings the grouping is a pure
  counting pass (no ``argsort``), merges onto a non-empty cache are a
  handful of vectorised row operations; only sets holding a line inside
  the generation's resident [min, max] tag bound are replayed per line;
* :meth:`chase_cyclic` computes the hit/miss vector of the *timed* pass
  of a p-chase analytically from per-set occupancy (line counts vs.
  associativity, per-sector valid masks) — zero per-load Python — and
  applies the exact end state for the sampled prefix; it reads only
  the first ``min(ring, n_samples)`` addresses (the ring length is
  passed separately, so callers need not build the whole ring), and a
  warmed pass that leaves the state alone is answered from the deferred
  warm descriptor (no rows materialised); when that pass walks a ring of
  at most ``num_sets * ways`` lines at a stride within the line size, no
  set is over-subscribed and the answer is closed form — every load
  hits (the capacity cliff) — with no per-load or per-set work at all;
* the per-set ring line counts behind that analysis are closed form for
  uniform strides: consecutive lines below the line size, and above it
  (the cache-line-size benchmark's line-skipping rings, up to 8x the
  cache) ``q = line / gcd(stride, line)`` arithmetic progressions of line
  indices, each counted per set with a modular inverse — O(q) per
  queried line instead of one O(ring) pass over the whole ring, which
  remains only where ``q`` is large;
* :meth:`fixed_point_hits` answers a lower level of a fresh warmed
  p-chase — it sees only the loads that missed above it — from the
  deferred descriptor: when no such load lies in an over-subscribed set
  every one hits the fixed point, and no row is materialised;
* :meth:`pass_monotone` is the batch equivalent of a monotone
  ``access`` sequence on *arbitrary* cache state: sets whose touched
  lines are uniformly resident or uniformly absent are handled
  vectorised, mixed sets fall back to the exact per-access loop;
* :meth:`probe_many` is a vectorised, non-mutating bulk :meth:`probe`.

Every analytic path is access-for-access equivalent to the exact
:meth:`access` loop — same hit vector, same end state (asserted by
property tests in ``tests/test_cache_chase.py`` and
``tests/test_cache_warm.py``); sequences the analysis cannot cover fall
back to exact simulation automatically.  The model keeps cache state
only, no access statistics: the microbenchmarks observe nothing but
per-load latencies (hit or miss, Section IV-A).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SimCache"]

def _group_rank(
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable grouping of ``keys``: per-element cumcount and group size.

    Returns ``(order, group_starts, group_sizes, rank, size)`` where
    ``order`` stable-sorts the keys, ``group_starts``/``group_sizes``
    describe the sorted groups, and ``rank``/``size`` give each element
    (in original order) its appearance index within its group and the
    group's total count.
    """
    n = keys.size
    order = np.argsort(keys, kind="stable")
    ss = keys[order]
    gchange = np.empty(n, dtype=bool)
    gchange[0] = True
    np.not_equal(ss[1:], ss[:-1], out=gchange[1:])
    gstarts = np.flatnonzero(gchange)
    gsizes = np.diff(np.append(gstarts, n))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - np.repeat(gstarts, gsizes)
    size = np.empty(n, dtype=np.int64)
    size[order] = np.repeat(gsizes, gsizes)
    return order, gstarts, gsizes, rank, size


class SimCache:
    """One physical cache instance.

    Parameters mirror :class:`~repro.gpuspec.spec.CacheSpec`: total
    ``size`` bytes organised as ``ways``-associative sets of ``line_size``
    lines, each line split into ``line_size // fetch_granularity`` sectors.
    """

    __slots__ = (
        "name",
        "size",
        "line_size",
        "fetch_granularity",
        "ways",
        "num_sets",
        "sectors_per_line",
        "_tags",
        "_masks",
        "_gen",
        "_set_gen",
        "_valid_sets",
        "_line_min",
        "_line_max",
        "_line_gen",
        "_virtual",
    )

    def __init__(
        self,
        size: int,
        line_size: int,
        fetch_granularity: int,
        ways: int,
        name: str = "cache",
    ) -> None:
        if size <= 0 or line_size <= 0 or ways <= 0:
            raise ValueError("size, line_size and ways must be positive")
        if line_size % fetch_granularity:
            raise ValueError("fetch_granularity must divide line_size")
        if size % (line_size * ways):
            raise ValueError("size must be a multiple of line_size * ways")
        self.name = name
        self.size = size
        self.line_size = line_size
        self.fetch_granularity = fetch_granularity
        self.ways = ways
        self.num_sets = size // (line_size * ways)
        self.sectors_per_line = line_size // fetch_granularity
        self._tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self._masks = np.zeros((self.num_sets, ways), dtype=np.int64)
        # Generation stamps make flush O(1): a row is only meaningful when
        # its stamp matches the current generation.
        self._gen = 1
        self._set_gen = np.zeros(self.num_sets, dtype=np.int64)
        self._valid_sets = 0
        # Smallest and largest line tags installed in the current
        # generation: every resident line lies in [min, max], so a merge
        # proves "this incoming line cannot match resident content" in
        # O(1) for lines outside it (a ring above or below every resident
        # line shares none).
        self._line_min = 0
        self._line_max = -1
        self._line_gen = 0
        # Deferred warm state: (starts_from_flush, [(base, nbytes, stride)]).
        # While set, the logical state is the current rows (after a flush,
        # when the flag is set) warmed with the listed rings in order, but
        # no rows are materialised; any operation that reads or mutates
        # rows materialises first (see warm_fixed_point / warm_cyclic_lazy).
        # Cooperative protocols warm caches they never probe — those warms
        # are discarded for free by the next flush.
        self._virtual: tuple[bool, list[tuple[int, int, int]]] | None = None

    # ------------------------------------------------------------------ #
    # internal helpers                                                    #
    # ------------------------------------------------------------------ #

    def _ensure_row(self, set_id: int) -> None:
        """Lazily reset a row whose generation stamp is stale."""
        if self._set_gen[set_id] != self._gen:
            self._tags[set_id] = -1
            self._masks[set_id] = 0
            self._set_gen[set_id] = self._gen
            self._valid_sets += 1

    def warm_fixed_point(self, base: int, nbytes: int, stride: int) -> None:
        """Deferred flush + :meth:`warm_cyclic` of a uniform strided ring.

        O(1): the logical state becomes the warm LRU fixed point of the
        ring, but rows are only materialised when an operation actually
        reads or mutates them.  :meth:`chase_cyclic` answers analytic
        timed passes against the descriptor directly, so a fresh p-chase
        sweep never touches per-set state at all.
        """
        self._virtual = (True, [(int(base), int(nbytes), int(stride))])

    def warm_cyclic_lazy(self, base: int, nbytes: int, stride: int) -> None:
        """Deferred :meth:`warm_cyclic` of a uniform strided ring — O(1).

        Appends the ring to the pending warm list; the rows are only
        installed if something later reads them.  A flush discards the
        pending warms for free — exactly what the cooperative protocols
        do to the caches they warm but never probe.
        """
        if self._virtual is not None:
            flag, rings = self._virtual
            if len(rings) < 8:
                rings.append((int(base), int(nbytes), int(stride)))
                return
            self._materialize()
        if self._valid_sets == 0:
            self._virtual = (True, [(int(base), int(nbytes), int(stride))])
        else:
            self._virtual = (False, [(int(base), int(nbytes), int(stride))])

    def _fixed_point_ring(self) -> tuple[int, int, int] | None:
        """The deferred ring when the state is exactly its fixed point."""
        v = self._virtual
        if v is not None and v[0] and len(v[1]) == 1:
            return v[1][0]
        return None

    def holds_fixed_point(self, base: int, nbytes: int, stride: int) -> bool:
        """True when the state is the deferred warm fixed point of this ring.

        The ring is ``nbytes // stride`` loads of ``stride`` from ``base``;
        the proof is the descriptor alone (flush + one warm of exactly
        this ring, nothing materialised since), so it costs O(1).
        """
        ring = self._fixed_point_ring()
        return (
            ring is not None
            and ring[0] == base
            and ring[2] == stride
            and ring[1] // ring[2] == nbytes // stride
        )

    def _materialize(self) -> None:
        """Install the rows of the deferred warm list."""
        v = self._virtual
        if v is None:
            return
        self._virtual = None
        flush_first, rings = v
        if flush_first:
            self.flush()
        for base, nbytes, stride in rings:
            addrs = base + np.arange(nbytes // stride, dtype=np.int64) * stride
            self.warm_cyclic(addrs, stride=stride)

    def _note_lines(self, line_min: int, line_max: int) -> None:
        """Widen this generation's [min, max] bound by installed lines."""
        if self._line_gen != self._gen:
            self._line_min = int(line_min)
            self._line_max = int(line_max)
            self._line_gen = self._gen
            return
        if line_min < self._line_min:
            self._line_min = int(line_min)
        if line_max > self._line_max:
            self._line_max = int(line_max)

    def _line_bounds(self) -> tuple[int, int]:
        """[min, max] of every line installed this generation ((0, -1): none)."""
        if self._line_gen == self._gen:
            return self._line_min, self._line_max
        return 0, -1

    # ------------------------------------------------------------------ #
    # exact per-access simulation                                         #
    # ------------------------------------------------------------------ #

    def access(self, addr: int) -> bool:
        """Perform one load; returns True on a (sector) hit.

        A tag match with an invalid sector is a *sector miss*: the sector
        is fetched (granularity = ``fetch_granularity``) and the access
        reports a miss, but no line is evicted.
        """
        if self._virtual is not None:
            self._materialize()
        line = addr // self.line_size
        sector_bit = 1 << ((addr % self.line_size) // self.fetch_granularity)
        set_id = line % self.num_sets
        self._ensure_row(set_id)
        tags = self._tags[set_id]
        masks = self._masks[set_id]
        ways = self.ways
        hit_way = -1
        for w in range(ways - 1, -1, -1):
            if tags[w] == line:
                hit_way = w
                break
        if hit_way >= 0:
            mask = int(masks[hit_way])
            hit = bool(mask & sector_bit)
            new_mask = mask | sector_bit
            # Promote to MRU (shift the tail left by one).
            if hit_way != ways - 1:
                tags[hit_way:-1] = tags[hit_way + 1 :]
                masks[hit_way:-1] = masks[hit_way + 1 :]
                tags[ways - 1] = line
            masks[ways - 1] = new_mask
            return hit
        # Line miss: evict the LRU slot (slot 0; empties pack there).
        tags[:-1] = tags[1:]
        masks[:-1] = masks[1:]
        tags[ways - 1] = line
        masks[ways - 1] = sector_bit
        self._note_lines(line, line)
        return False

    def access_many(self, addrs: np.ndarray) -> np.ndarray:
        """Exact simulation of an address sequence; returns hit booleans."""
        access = self.access
        return np.fromiter(
            (access(int(a)) for a in addrs), dtype=bool, count=len(addrs)
        )

    def probe(self, addr: int) -> bool:
        """Non-mutating hit test (no LRU update, no fill)."""
        if self._virtual is not None:
            self._materialize()
        line = addr // self.line_size
        set_id = line % self.num_sets
        if self._set_gen[set_id] != self._gen:
            return False
        sector_bit = 1 << ((addr % self.line_size) // self.fetch_granularity)
        tags = self._tags[set_id]
        for w in range(self.ways - 1, -1, -1):
            if tags[w] == line:
                return bool(int(self._masks[set_id, w]) & sector_bit)
        return False

    def probe_many(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorised, non-mutating bulk :meth:`probe`."""
        if self._virtual is not None:
            self._materialize()
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return np.zeros(0, dtype=bool)
        lines = addrs // self.line_size
        bits = np.int64(1) << (
            (addrs % self.line_size) // self.fetch_granularity
        ).astype(np.int64)
        sets = lines % self.num_sets
        fresh = self._set_gen[sets] == self._gen
        eq = (self._tags[sets] == lines[:, None]) & fresh[:, None]
        found = eq.any(axis=1)
        way = eq.argmax(axis=1)
        masks = self._masks[sets, way]
        return found & ((masks & bits) != 0)

    # ------------------------------------------------------------------ #
    # ring analysis (shared by warm / chase)                              #
    # ------------------------------------------------------------------ #

    def _addr_parts(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(line index, sector bit) per address."""
        lines = addrs // self.line_size
        bits = np.int64(1) << (
            (addrs % self.line_size) // self.fetch_granularity
        ).astype(np.int64)
        return lines, bits

    def _ring_structure(
        self, addrs: np.ndarray, stride: int | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-line structure of a monotone address sequence.

        Returns ``(uniq_lines, line_masks, set_ids, from_end, touched)``:
        one entry per distinct line in first-touch order, with
        ``from_end`` the 0-indexed distance from the end of the line's
        per-set group (0 == most recently touched line of its set) and
        ``touched`` the sorted unique set ids.

        ``stride`` is a caller-supplied uniform-stride hint: it certifies
        monotonicity and, for ``stride <= line_size``, makes the grouping
        a pure counting pass (consecutive lines — no ``argsort``).
        """
        sets_total = self.num_sets
        line = self.line_size
        fg = self.fetch_granularity
        a0 = int(addrs[0])
        if stride is not None and 0 < stride <= line:
            # Uniform stride at or below the line size: every line between
            # the first and last address is touched, in consecutive order.
            l0 = a0 // line
            l_last = int(addrs[-1]) // line
            m = l_last - l0 + 1
            uniq_lines = l0 + np.arange(m, dtype=np.int64)
            if stride <= fg:
                # Every sector between the first and last address is hit.
                full = (np.int64(1) << self.sectors_per_line) - 1
                line_masks = np.full(m, full, dtype=np.int64)
                first_sector = (a0 % line) // fg
                line_masks[0] &= full & ~((np.int64(1) << first_sector) - 1)
                last_sector = (int(addrs[-1]) % line) // fg
                line_masks[-1] &= (np.int64(1) << (last_sector + 1)) - 1
            else:
                # Sector pattern varies per line: OR-reduce per line run.
                starts = np.maximum(
                    np.int64(0), -((a0 - uniq_lines * line) // stride)
                )
                _, bits = self._addr_parts(addrs)
                line_masks = np.bitwise_or.reduceat(bits, starts)
            set_ids = uniq_lines % sets_total
            # Consecutive lines cycle through the sets with period
            # ``num_sets``: group rank and size come from pure arithmetic.
            rank = np.arange(m, dtype=np.int64) // sets_total
            counts = m // sets_total + (
                np.arange(m, dtype=np.int64) % sets_total < m % sets_total
            )
            from_end = counts - 1 - rank
            if m >= sets_total:
                touched = np.arange(sets_total, dtype=np.int64)
            else:
                touched = np.sort(set_ids)
            return uniq_lines, line_masks, set_ids, from_end, touched
        lines, bits = self._addr_parts(addrs)
        if stride is None or stride < line:
            # Generic monotone sequence: collapse each line's run of loads.
            # (A uniform stride above the line size gives every address
            # its own line and single sector, so there are no runs.)
            change = np.empty(lines.size, dtype=bool)
            change[0] = True
            np.not_equal(lines[1:], lines[:-1], out=change[1:])
            run_starts = np.flatnonzero(change)
            lines = lines[run_starts]
            bits = np.bitwise_or.reduceat(bits, run_starts)
        set_ids = lines % sets_total
        order, gstarts, _, rank, size = _group_rank(set_ids)
        return lines, bits, set_ids, size - 1 - rank, set_ids[order][gstarts]

    def _ring_set_counts(
        self,
        addrs: np.ndarray,
        ring: int,
        stride: int | None,
        query_lines: np.ndarray,
    ) -> np.ndarray:
        """Ring-wide per-set line counts, looked up for ``query_lines``.

        ``addrs`` may be a prefix of the ``ring``-load ring (``stride``
        given).  For uniform strides the counts follow from arithmetic:
        O(len(query_lines)) at or below the line size, and
        O(q * len(query_lines)) above it, ``q = line / gcd(stride, line)``
        (see :meth:`_skip_set_counts`).  Otherwise — or when ``q`` makes
        the arithmetic dearer than the ring — the whole ring is built if
        need be and one O(ring) counting pass is made.
        """
        line = self.line_size
        sets_total = self.num_sets
        a0 = int(addrs[0])
        if stride is not None and 0 < stride <= line:
            l0 = a0 // line
            m = (a0 + (ring - 1) * stride) // line - l0 + 1
            offs = (query_lines - l0) % sets_total
            return m // sets_total + (offs < m % sets_total)
        if (
            stride is not None
            and stride > line
            and line // math.gcd(stride, line) * query_lines.size < ring
        ):
            return self._skip_set_counts(a0, ring, stride, query_lines)
        if addrs.size < ring:
            addrs = a0 + np.arange(ring, dtype=np.int64) * stride
        lines = addrs // line
        if stride is not None and stride >= line:
            # Every address is a distinct line — no run detection needed.
            uniq = lines
        else:
            change = np.empty(lines.size, dtype=bool)
            change[0] = True
            np.not_equal(lines[1:], lines[:-1], out=change[1:])
            uniq = lines[np.flatnonzero(change)]
        counts_per_set = np.bincount(uniq % sets_total, minlength=sets_total)
        return counts_per_set[query_lines % sets_total]

    def _skip_set_counts(
        self, a0: int, ring: int, stride: int, query_lines: np.ndarray
    ) -> np.ndarray:
        """Closed-form ring-wide per-set line counts for ``stride > line``.

        Every load of such a ring is its own line.  With ``q = line /
        gcd(stride, line)``, loads ``t, t + q, t + 2q, ...`` (``t < q``)
        advance by exactly ``step = stride * q / line`` lines, so the
        ring splits into ``q`` arithmetic progressions of line indices
        ``c_t + j * step``.  A progression reaches set ``r`` only when
        ``r ≡ c_t`` modulo ``d = gcd(step, num_sets)``; its indices ``j``
        that land there form one residue class modulo ``num_sets / d``,
        found with a modular inverse, and are counted in O(1).
        """
        line = self.line_size
        sets_total = self.num_sets
        q = line // math.gcd(stride, line)
        step = stride * q // line
        d = math.gcd(step, sets_total)
        period = sets_total // d
        inv = pow(step // d, -1, period)
        sets = query_lines % sets_total
        counts = np.zeros(query_lines.size, dtype=np.int64)
        for t in range(min(q, ring)):
            c = (a0 + t * stride) // line
            n_t = (ring - t + q - 1) // q
            diff = sets - c % sets_total
            j0 = (diff // d) % period * inv % period
            counts += (diff % d == 0) * (n_t // period + (j0 < n_t % period))
        return counts

    def _ring_fits(self, a0: int, ring: int, stride: int) -> bool:
        """True when a ``stride <= line_size`` ring over-subscribes no set.

        Such a ring touches every line between its first and last address,
        and consecutive lines cycle through the sets, so no set holds more
        than ``ceil(m / num_sets)`` of its ``m`` lines: at most ``ways``
        exactly when ``m <= num_sets * ways`` (the capacity cliff).
        """
        line = self.line_size
        m = (a0 + (ring - 1) * stride) // line - a0 // line + 1
        return m <= self.num_sets * self.ways

    # ------------------------------------------------------------------ #
    # vectorised row transforms                                           #
    # ------------------------------------------------------------------ #

    def _fresh_install(
        self,
        uniq_lines: np.ndarray,
        line_masks: np.ndarray,
        set_ids: np.ndarray,
        from_end: np.ndarray,
        touched: np.ndarray,
    ) -> None:
        """End-state install onto a flushed cache (``_valid_sets == 0``).

        Within each set the last ``min(ways, k)`` lines survive, packed
        toward the MRU end.
        """
        ws = self.ways
        keep = from_end < ws
        kept_sets = set_ids[keep]
        kept_ways = ws - 1 - from_end[keep]
        self._tags[touched] = -1
        self._masks[touched] = 0
        self._set_gen[touched] = self._gen
        self._valid_sets += int(touched.size)
        self._tags[kept_sets, kept_ways] = uniq_lines[keep]
        self._masks[kept_sets, kept_ways] = line_masks[keep]
        self._note_lines(int(uniq_lines[0]), int(uniq_lines[-1]))

    def _incoming_rows(
        self,
        uniq_lines: np.ndarray,
        line_masks: np.ndarray,
        set_ids: np.ndarray,
        from_end: np.ndarray,
        touched: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense (len(touched), ways) rows of the surviving incoming lines."""
        ws = self.ways
        keep = from_end < ws
        row_idx = np.searchsorted(touched, set_ids[keep])
        kept_ways = ws - 1 - from_end[keep]
        inc_tags = np.full((touched.size, ws), -1, dtype=np.int64)
        inc_masks = np.zeros((touched.size, ws), dtype=np.int64)
        inc_tags[row_idx, kept_ways] = uniq_lines[keep]
        inc_masks[row_idx, kept_ways] = line_masks[keep]
        return inc_tags, inc_masks

    def _gather_rows(self, touched: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copy of the rows for ``touched`` sets with stale rows blanked."""
        old_tags = self._tags[touched].copy()
        old_masks = self._masks[touched].copy()
        stale = self._set_gen[touched] != self._gen
        if stale.any():
            old_tags[stale] = -1
            old_masks[stale] = 0
        return old_tags, old_masks, stale

    def _replay_merge(self, lines: np.ndarray, line_masks: np.ndarray, set_ids: np.ndarray) -> None:
        """Exact per-set replay of a warm pass (one event per line run).

        Used for the few sets where an incoming line may re-access a
        resident one: a hit promotes and unions sector masks, a miss
        evicts LRU — whether a given line hits depends on the evictions
        this very pass performed earlier in the set, which the replay
        reproduces literally.
        """
        ways = self.ways
        buckets: dict[int, list[tuple[int, int]]] = {}
        for i in range(lines.size):
            buckets.setdefault(int(set_ids[i]), []).append(
                (int(lines[i]), int(line_masks[i]))
            )
        for set_id, events in buckets.items():
            self._ensure_row(set_id)
            row_t = self._tags[set_id]
            row_m = self._masks[set_id]
            row = [
                (int(row_t[w]), int(row_m[w])) for w in range(ways) if row_t[w] != -1
            ]
            for line, mask in events:
                for idx, (tag, old_mask) in enumerate(row):
                    if tag == line:
                        row.pop(idx)
                        row.append((line, old_mask | mask))
                        break
                else:
                    if len(row) == ways:
                        row.pop(0)
                    row.append((line, mask))
            row_t[:] = -1
            row_m[:] = 0
            pad = ways - len(row)
            for w, (tag, mask) in enumerate(row):
                row_t[pad + w] = tag
                row_m[pad + w] = mask
            self._note_lines(
                min(line for line, _ in events), max(line for line, _ in events)
            )

    def _merge_rows(
        self,
        touched: np.ndarray,
        inc_tags: np.ndarray,
        inc_masks: np.ndarray,
    ) -> None:
        """Pure-insert incoming lines into the rows of ``touched`` sets.

        The end state per set is the last ``ways`` entries of
        ``[old entries..., incoming...]`` (LRU evicts first).  Callers
        guarantee no incoming line is resident (lines above the
        generation's tag bound, or thrash semantics where any old copy is
        provably evicted before its truncation slot).
        """
        ws = self.ways
        valid_inc = inc_tags != -1
        if bool(valid_inc.all()):
            # Every touched set receives a full complement of lines none
            # of which can be resident: a plain overwrite scatter.
            stale = self._set_gen[touched] != self._gen
            self._tags[touched] = inc_tags
            self._masks[touched] = inc_masks
            self._set_gen[touched] = self._gen
            self._valid_sets += int(stale.sum())
            self._note_lines(int(inc_tags.min()), int(inc_tags.max()))
            return
        old_tags, old_masks, stale = self._gather_rows(touched)
        surv = old_tags != -1
        # A set receiving a full complement of incoming lines keeps none of
        # its old entries — a plain scatter, no survivor shuffle needed.
        full = valid_inc.all(axis=1)
        if full.all():
            self._tags[touched] = inc_tags
            self._masks[touched] = inc_masks
        else:
            self._tags[touched[full]] = inc_tags[full]
            self._masks[touched[full]] = inc_masks[full]
            part = ~full
            cat_tags = np.concatenate(
                [np.where(surv[part], old_tags[part], np.int64(-1)), inc_tags[part]],
                axis=1,
            )
            cat_masks = np.concatenate(
                [np.where(surv[part], old_masks[part], np.int64(0)), inc_masks[part]],
                axis=1,
            )
            order = np.argsort(cat_tags != -1, axis=1, kind="stable")
            cat_tags = np.take_along_axis(cat_tags, order, axis=1)[:, -ws:]
            cat_masks = np.take_along_axis(cat_masks, order, axis=1)[:, -ws:]
            self._tags[touched[part]] = cat_tags
            self._masks[touched[part]] = cat_masks
        self._set_gen[touched] = self._gen
        self._valid_sets += int(stale.sum())
        self._note_lines(int(inc_tags[valid_inc].min()), int(inc_tags.max()))

    def _promote_rows(
        self,
        touched: np.ndarray,
        row_idx: np.ndarray,
        ways_idx: np.ndarray,
        ranks: np.ndarray,
        or_masks: np.ndarray,
    ) -> None:
        """Re-access resident lines: OR sector masks, promote to MRU.

        ``(row_idx, ways_idx)`` locate each re-accessed line inside the
        gathered ``touched`` rows; ``ranks`` is its access order.  The
        final LRU order is: untouched entries in their previous relative
        order, then the re-accessed lines in access order.
        """
        sets_of = touched[row_idx]
        self._masks[sets_of, ways_idx] = self._masks[sets_of, ways_idx] | or_masks
        key = np.zeros((touched.size, self.ways), dtype=np.int64)
        key[row_idx, ways_idx] = 1 + ranks
        order = np.argsort(key, axis=1, kind="stable")
        self._tags[touched] = np.take_along_axis(self._tags[touched], order, axis=1)
        self._masks[touched] = np.take_along_axis(self._masks[touched], order, axis=1)

    # ------------------------------------------------------------------ #
    # analytic cyclic warm-up                                             #
    # ------------------------------------------------------------------ #

    def warm_cyclic(self, addrs: np.ndarray, stride: int | None = None) -> None:
        """Install the end state of one full pass over ``addrs``.

        ``addrs`` must be monotonically non-decreasing (the p-chase arrays
        of Section IV-A are sequential strided rings); arbitrary sequences
        fall back to exact simulation.  ``stride`` is an optional uniform
        stride hint that certifies monotonicity and enables the pure
        counting-pass grouping.

        The end state equals exact per-load simulation on *any* prior
        cache state (sets whose lines may re-access resident content are
        replayed literally; all others take the vectorised pure-insert
        path).  Consequence relied on elsewhere: repeating the pass
        (multiple warm-up rounds) is a fixed point.
        """
        if self._virtual is not None:
            self._materialize()
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return
        if stride is None and addrs.size > 1 and not (np.diff(addrs) >= 0).all():
            self.access_many(addrs)
            return
        uniq, masks, sets, from_end, touched = self._ring_structure(addrs, stride)
        if self._valid_sets == 0:
            self._fresh_install(uniq, masks, sets, from_end, touched)
        else:
            # A pass line inside the resident [min, max] tag bound may
            # re-access a resident line; whether it hits depends on the
            # evictions the pass itself performed earlier in that set, so
            # those few sets are replayed exactly.  Lines outside the bound
            # are provably absent — their sets take the vectorised
            # pure-insert path.
            lo, hi = self._line_bounds()
            cand_line = (uniq >= lo) & (uniq <= hi)
            if cand_line.any():
                in_cand_set = np.zeros(self.num_sets, dtype=bool)
                in_cand_set[sets[cand_line]] = True
                sel = in_cand_set[sets]
                self._replay_merge(uniq[sel], masks[sel], sets[sel])
                keep = ~sel
                uniq, masks, sets, from_end = (
                    uniq[keep],
                    masks[keep],
                    sets[keep],
                    from_end[keep],
                )
                touched = np.unique(sets)
            if uniq.size:
                inc_tags, inc_masks = self._incoming_rows(
                    uniq, masks, sets, from_end, touched
                )
                self._merge_rows(touched, inc_tags, inc_masks)

    # ------------------------------------------------------------------ #
    # analytic timed p-chase                                              #
    # ------------------------------------------------------------------ #

    def chase_cyclic(
        self,
        addrs: np.ndarray,
        n_samples: int,
        *,
        warmed: bool = True,
        stride: int | None = None,
        update_state: bool = True,
        ring: int | None = None,
    ) -> np.ndarray | None:
        """Analytic timed pass of a cyclic monotone p-chase.

        Computes the hit/miss vector of the first ``n_samples`` loads of
        the cyclic walk ``addrs[i % ring]`` directly from per-set
        occupancy, with zero per-load Python.  ``ring`` is the ring
        length; ``None`` means ``len(addrs)``.  Only the first
        ``min(ring, n_samples)`` addresses are ever read, so with
        ``stride`` given ``addrs`` may hold just that sampled prefix (a
        p-chase stores only its first N latencies, Section IV-A):

        * a set holding ``k <= ways`` ring lines serves every access from
          the warmed state (pure hits);
        * an over-subscribed set (``k > ways``) thrashes — every line
          access misses, intra-line sector repeats hit — because a cyclic
          monotone walk under LRU always evicts a line exactly one
          revolution before re-accessing it.

        Preconditions (the caller's contract; ``None`` means "fall back
        to exact simulation"):

        * ``addrs`` is monotone non-decreasing (certified by ``stride``);
        * ``warmed=True``: the cache state is the *fresh* warm fixed point
          of this exact ring (flush + :meth:`warm_cyclic`);
        * ``warmed=False``: the cache is flushed (verified internally).

        ``update_state=False`` computes the hits but leaves the
        cache at the warm fixed point — used by fresh p-chase runs, whose
        successor flushes and re-warms anyway.

        A warmed, stride-certified pass that leaves the state alone
        (``update_state=False``, or only full wraps — the identity on the
        fixed point) is answered from the deferred descriptor
        (:meth:`holds_fixed_point`) without materialising rows.  If its
        stride is at most the line size and the ring spans at most
        ``num_sets * ways`` lines (:meth:`_ring_fits`), every load hits:
        the pass returns all-True in O(1).

        Equivalence with the exact loop (hits, end state) is pinned by
        property tests.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        ring = int(addrs.size) if ring is None else int(ring)
        if ring == 0 or n_samples <= 0:
            return None
        if stride is None and ring > 1 and not (np.diff(addrs) >= 0).all():
            return None
        n = int(n_samples)
        wraps, rem = divmod(n, ring)
        keeps_state = warmed and stride is not None and not (update_state and rem)
        if self._virtual is not None and not (
            keeps_state and self.holds_fixed_point(int(addrs[0]), ring * stride, stride)
        ):
            self._materialize()
        if not warmed and self._valid_sets != 0:
            return None
        if (
            keeps_state
            and 0 < stride <= self.line_size
            and self._ring_fits(int(addrs[0]), ring, stride)
        ):
            # No set is over-subscribed: every load hits the fixed point.
            return np.ones(n, dtype=bool)
        ws = self.ways
        pattern_len = ring if wraps >= 1 else rem
        sub = addrs[:pattern_len]
        lines, bits = self._addr_parts(sub)
        run_first = np.empty(pattern_len, dtype=bool)
        run_first[0] = True
        np.not_equal(lines[1:], lines[:-1], out=run_first[1:])
        run_starts = np.flatnonzero(run_first)
        run_ids = np.cumsum(run_first) - 1
        uniq = lines[run_starts]
        # Same (line, sector) repeats are contiguous in a monotone walk.
        sec_key = lines * self.sectors_per_line + (
            (sub % self.line_size) // self.fetch_granularity
        )
        dup = np.empty(pattern_len, dtype=bool)
        dup[0] = False
        np.equal(sec_key[1:], sec_key[:-1], out=dup[1:])

        counts = self._ring_set_counts(addrs, ring, stride, uniq)
        thrash_line = counts > ws
        thrash = thrash_line[run_ids]
        steady = ~thrash | dup

        def assemble(pattern: np.ndarray, wrap1: np.ndarray | None) -> np.ndarray:
            if wrap1 is None:  # warmed: every wrap shows the steady pattern
                return pattern[:n] if wraps == 0 else np.resize(pattern, n)
            if wraps == 0:
                return wrap1[:n]
            return np.concatenate([wrap1, np.resize(pattern, n - ring)])

        # Cold wrap 1: only the repeats of a (line, sector) hit.
        hits = assemble(steady, None if warmed else dup)

        if update_state:
            if not warmed:
                # With a wrap the sampled prefix is the whole ring.
                u, m, s, fe, t = self._ring_structure(sub, stride)
                self._fresh_install(u, m, s, fe, t)
                if wraps >= 1 and rem:
                    self._apply_warm_prefix(
                        sub, rem, lines, bits, run_first, run_ids, uniq, counts
                    )
            elif rem:
                self._apply_warm_prefix(
                    sub, rem, lines, bits, run_first, run_ids, uniq, counts
                )
        return hits

    def fixed_point_hits(
        self, addrs: np.ndarray, ring: int, stride: int, pending: np.ndarray
    ) -> np.ndarray | None:
        """Hits of the ``pending`` loads of a timed pass, from the descriptor.

        The pass is the cyclic walk ``addrs[i % ring]`` (``addrs`` holds
        the first ``min(ring, len(pending))`` addresses) and only the
        loads flagged in ``pending`` reach this cache — a lower level of
        a fresh warmed p-chase.  When the state is this ring's deferred
        warm fixed point (:meth:`holds_fixed_point`) and no pending load
        lies in a set holding more than ``ways`` ring lines, the fixed
        point holds every ring line of those sets with the ring's own
        sector bits, and the pass only promotes: every pending load hits.
        The pending mask is returned and the descriptor stays deferred —
        the caller keeps the fixed point, as :meth:`chase_cyclic` does with
        ``update_state=False``.

        Otherwise returns ``None`` without changing anything.
        """
        if not self.holds_fixed_point(int(addrs[0]), ring * stride, stride):
            return None
        idx = np.flatnonzero(pending)
        if idx.size:
            lines = np.unique(addrs[idx % addrs.size] // self.line_size)
            counts = self._ring_set_counts(addrs, ring, stride, lines)
            if (counts > self.ways).any():
                return None
        return pending.copy()

    def _apply_warm_prefix(
        self,
        sub: np.ndarray,
        rem: int,
        lines: np.ndarray,
        bits: np.ndarray,
        run_first: np.ndarray,
        run_ids: np.ndarray,
        uniq: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Apply the first ``rem`` timed loads to a fresh-warmed state.

        Full wraps are identity on the warm fixed point; only the cut
        prefix moves the state.  Sets that fit (``k <= ways``) see pure
        promotions (a rotation of the freshly-warmed row); thrashing sets
        see pure inserts of their prefix lines.
        """
        ws = self.ways
        n_runs = int(run_ids[rem - 1]) + 1
        pre_lines = uniq[:n_runs]
        pre_sets = pre_lines % self.num_sets
        pre_counts = counts[:n_runs]
        # Sector mask of each prefix run, truncated at the cut.
        starts = np.flatnonzero(run_first[:rem])
        pre_masks = np.bitwise_or.reduceat(bits[:rem], starts)
        # Group prefix runs by set (tiny arrays — bounded by n_samples).
        _, _, _, rank, gsize_line = _group_rank(pre_sets)
        thrash_line = pre_counts > ws

        fit = ~thrash_line
        if fit.any():
            touched = np.unique(pre_sets[fit])
            row_idx = np.searchsorted(touched, pre_sets[fit])
            # Fresh-warm rows hold the k ring lines at ways [ways-k..); the
            # j-th prefix line of a set is its j-th ring line.
            ways_idx = ws - pre_counts[fit] + rank[fit]
            self._promote_rows(
                touched, row_idx, ways_idx, rank[fit], pre_masks[fit]
            )
        if thrash_line.any():
            sel = thrash_line
            touched = np.unique(pre_sets[sel])
            from_end = gsize_line[sel] - 1 - rank[sel]
            inc_tags, inc_masks = self._incoming_rows(
                pre_lines[sel], pre_masks[sel], pre_sets[sel], from_end, touched
            )
            self._merge_rows(touched, inc_tags, inc_masks)

    # ------------------------------------------------------------------ #
    # batch monotone pass on arbitrary state                              #
    # ------------------------------------------------------------------ #

    def pass_monotone(self, addrs: np.ndarray) -> np.ndarray | None:
        """Exact batch equivalent of ``[self.access(a) for a in addrs]``.

        ``addrs`` must be monotone non-decreasing (``None`` is returned
        otherwise, *before* any mutation).  Works on arbitrary cache
        state: sets whose touched lines are uniformly resident see pure
        promotions, sets with no resident touched line see pure inserts —
        both vectorised; mixed sets are replayed through the exact
        :meth:`access` loop.  Used by the probe protocols and by filtered
        (multi-level) p-chase walks.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        n = int(addrs.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if n > 1 and not (np.diff(addrs) >= 0).all():
            return None
        if self._virtual is not None:
            self._materialize()
        lines, bits = self._addr_parts(addrs)
        run_first = np.empty(n, dtype=bool)
        run_first[0] = True
        np.not_equal(lines[1:], lines[:-1], out=run_first[1:])
        run_starts = np.flatnonzero(run_first)
        run_ids = np.cumsum(run_first) - 1
        uniq = lines[run_starts]
        g_total = uniq.size
        run_masks = np.bitwise_or.reduceat(bits, run_starts)
        sec_key = lines * self.sectors_per_line + (
            (addrs % self.line_size) // self.fetch_granularity
        )
        dup = np.empty(n, dtype=bool)
        dup[0] = False
        np.equal(sec_key[1:], sec_key[:-1], out=dup[1:])

        set_ids = uniq % self.num_sets
        fresh = self._set_gen[set_ids] == self._gen
        rows = self._tags[set_ids]
        eq = (rows == uniq[:, None]) & fresh[:, None]
        found = eq.any(axis=1)
        fway = eq.argmax(axis=1)
        start_masks = np.where(found, self._masks[set_ids, fway], np.int64(0))

        # Group the touched lines by set; classify each set.
        order, gstarts, gsizes, rank, gsize_line = _group_rank(set_ids)
        found_per_group = np.add.reduceat(found[order].astype(np.int64), gstarts)
        group_of_line = np.empty(g_total, dtype=np.int64)
        group_of_line[order] = np.repeat(np.arange(gstarts.size), gsizes)
        all_found = (found_per_group == gsizes)[group_of_line]
        none_found = (found_per_group == 0)[group_of_line]
        mixed = ~all_found & ~none_found

        hits = np.empty(n, dtype=bool)

        sel = all_found
        if sel.any():
            addr_sel = sel[run_ids]
            hit_sel = dup[addr_sel] | (
                (bits[addr_sel] & start_masks[run_ids[addr_sel]]) != 0
            )
            hits[addr_sel] = hit_sel
            touched = np.unique(set_ids[sel])
            row_idx = np.searchsorted(touched, set_ids[sel])
            self._promote_rows(
                touched, row_idx, fway[sel], rank[sel], run_masks[sel]
            )
        sel = none_found
        if sel.any():
            addr_sel = sel[run_ids]
            hits[addr_sel] = dup[addr_sel]
            touched = np.unique(set_ids[sel])
            from_end = gsize_line[sel] - 1 - rank[sel]
            inc_tags, inc_masks = self._incoming_rows(
                uniq[sel], run_masks[sel], set_ids[sel], from_end, touched
            )
            self._merge_rows(touched, inc_tags, inc_masks)
        if mixed.any():
            addr_sel = mixed[run_ids]
            idx = np.flatnonzero(addr_sel)
            access = self.access
            for i in idx:
                hits[i] = access(int(addrs[i]))
        return hits

    # ------------------------------------------------------------------ #
    # maintenance & introspection                                         #
    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Invalidate all lines — O(1) via the generation stamp."""
        self._virtual = None
        self._gen += 1
        self._valid_sets = 0

    def resident_lines(self) -> int:
        """Number of valid lines currently cached — test helper."""
        if self._virtual is not None:
            self._materialize()
        valid_rows = self._set_gen == self._gen
        return int((self._tags[valid_rows] != -1).sum())

    def snapshot(self) -> list[list[tuple[int, int]]]:
        """Per-set (tag, mask) pairs, LRU-first — test helper."""
        if self._virtual is not None:
            self._materialize()
        out: list[list[tuple[int, int]]] = []
        for s in range(self.num_sets):
            if self._set_gen[s] != self._gen:
                out.append([])
                continue
            out.append(
                [
                    (int(self._tags[s, w]), int(self._masks[s, w]))
                    for w in range(self.ways)
                    if self._tags[s, w] != -1
                ]
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimCache({self.name!r}, size={self.size}, line={self.line_size}, "
            f"fg={self.fetch_granularity}, ways={self.ways}, sets={self.num_sets})"
        )
