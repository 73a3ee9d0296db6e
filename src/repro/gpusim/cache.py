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
* :meth:`warm_cyclic_lazy` — one warm pass over a strided ring, after
  a flush every fresh p-chase's preamble — is O(1) too: it records a
  deferred descriptor, and rows are installed only if something reads
  them;
* :meth:`warm_cyclic` installs the *end state* of a full cyclic pass
  analytically — for uniform strided rings the grouping is a pure
  counting pass (no ``argsort``), merges onto a non-empty cache are a
  handful of vectorised row operations; only sets holding a line inside
  the generation's resident [min, max] tag bound go through
  :meth:`access` load by load;
* :meth:`known_state_hits` answers one revolution of a timed pass or a
  protocol probe (Sections IV-A, IV-D, IV-F..H), at any level of the
  path, from the state it starts from: a flushed empty cache, or a
  flush followed by deferred warms of line-disjoint rings, the walked
  one among them — the fresh p-chase's own warm, or its protocol's.  An
  LRU stack-distance count per set gives every hit without rows or
  per-load work, and reads only the walked addresses (a p-chase stores
  its first N latencies only, so callers need not build the whole ring);
  a lone ring strided within the line size that spans at most
  ``num_sets * ways`` lines over-subscribes no set, and every load hits
  (the capacity cliff) with no per-set work at all;
* the per-set ring line counts behind that analysis are closed form for
  uniform strides: consecutive lines below the line size, and above it
  (the cache-line-size benchmark's line-skipping rings, up to 8x the
  cache) ``q = line / gcd(stride, line)`` arithmetic progressions of line
  indices, each counted per set with a modular inverse — O(q) per
  queried line instead of one O(ring) pass over the whole ring, which
  remains only where ``q`` is large.

Every analytic path gives the exact :meth:`access` loop's hit vector,
and every warm also leaves the loop's end state (asserted by property
tests in ``tests/test_cache_chase.py`` and ``tests/test_cache_warm.py``).
A timed pass or probe answered analytically returns its hits only: the
cache state it leaves is unspecified until the next flush, because
every microbenchmark observes nothing but the per-load latencies (hit
or miss, Section IV-A) of one pass after a flush and its warm-ups.  A
pass no closed form answers goes through :meth:`access` load by load.
The ring primitives take the ring's stride and cover every uniform
strided ring.  The model keeps cache state only, no access statistics.
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
        # rows materialises first (see warm_cyclic_lazy).
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

    def warm_cyclic_lazy(self, base: int, nbytes: int, stride: int) -> None:
        """Deferred :meth:`warm_cyclic` of a uniform strided ring — O(1).

        Appends the ring to the pending warm list; the rows are only
        installed if something later reads them.  A flush discards the
        pending warms for free — exactly what the cooperative protocols
        do to the caches they warm but never probe.  The first warm after
        a flush records the ring's warm LRU fixed point, which
        :meth:`known_state_hits` answers passes and probes against
        directly, so a fresh p-chase sweep never touches per-set state at
        all.  A cold timed pass records its first revolution this way too:
        over a flushed cache, that revolution installs what one warm does.
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
        self, addrs: np.ndarray, stride: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-line structure of a ring strided by ``stride``.

        Returns ``(uniq_lines, line_masks, set_ids, from_end, touched)``:
        one entry per distinct line in first-touch order, with
        ``from_end`` the 0-indexed distance from the end of the line's
        per-set group (0 == most recently touched line of its set) and
        ``touched`` the sorted unique set ids.

        At or below the line size the grouping is a pure counting pass
        (consecutive lines — no ``argsort``); above it every address is
        its own line with a single sector.
        """
        sets_total = self.num_sets
        line = self.line_size
        fg = self.fetch_granularity
        a0 = int(addrs[0])
        if stride <= line:
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
        set_ids = lines % sets_total
        order, gstarts, _, rank, size = _group_rank(set_ids)
        return lines, bits, set_ids, size - 1 - rank, set_ids[order][gstarts]

    def _ring_set_counts(
        self, a0: int, ring: int, stride: int, query_lines: np.ndarray
    ) -> np.ndarray:
        """Ring-wide per-set line counts, looked up for ``query_lines``.

        The ring is ``ring`` loads of ``stride`` from ``a0``.  The counts
        follow from arithmetic: O(len(query_lines)) at or below the line
        size, and O(q * len(query_lines)) above it, ``q = line /
        gcd(stride, line)`` (see :meth:`_skip_set_counts`).  Where ``q``
        makes the arithmetic dearer than the ring, the ring is built from
        its first address and one O(ring) counting pass is made.
        """
        line = self.line_size
        sets_total = self.num_sets
        if stride <= line:
            l0 = a0 // line
            m = (a0 + (ring - 1) * stride) // line - l0 + 1
            offs = (query_lines - l0) % sets_total
            return m // sets_total + (offs < m % sets_total)
        if line // math.gcd(stride, line) * query_lines.size < ring:
            return self._skip_set_counts(a0, ring, stride, query_lines)
        # Every load of a ring strided above the line size is its own line.
        lines = (a0 + np.arange(ring, dtype=np.int64) * stride) // line
        counts_per_set = np.bincount(lines % sets_total, minlength=sets_total)
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

    # ------------------------------------------------------------------ #
    # analytic cyclic warm-up                                             #
    # ------------------------------------------------------------------ #

    def warm_cyclic(self, addrs: np.ndarray, *, stride: int) -> None:
        """Install the end state of one full pass over ``addrs``.

        ``addrs`` is a ring strided by ``stride`` (the p-chase arrays of
        Section IV-A are sequential strided rings).

        The end state equals exact per-load simulation on *any* prior
        cache state (sets whose lines may re-access resident content are
        walked load by load through :meth:`access`; all others take the
        vectorised pure-insert path).  Consequence relied on elsewhere:
        repeating the pass (multiple warm-up rounds) is a fixed point.
        """
        if self._virtual is not None:
            self._materialize()
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return
        uniq, masks, sets, from_end, touched = self._ring_structure(addrs, stride)
        if self._valid_sets == 0:
            self._fresh_install(uniq, masks, sets, from_end, touched)
        else:
            # A pass line inside the resident [min, max] tag bound may
            # re-access a resident line; whether it hits depends on the
            # evictions the pass itself performed earlier in that set, so
            # the loads of those few sets go through access() one by one.
            # Lines outside the bound are provably absent — their sets
            # take the vectorised pure-insert path.
            lo, hi = self._line_bounds()
            cand_line = (uniq >= lo) & (uniq <= hi)
            if cand_line.any():
                in_cand_set = np.zeros(self.num_sets, dtype=bool)
                in_cand_set[sets[cand_line]] = True
                self.access_many(
                    addrs[in_cand_set[(addrs // self.line_size) % self.num_sets]]
                )
                keep = ~in_cand_set[sets]
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
    # analytic pass on a known state                                      #
    # ------------------------------------------------------------------ #

    def known_state_hits(
        self, addrs: np.ndarray, stride: int, pending: np.ndarray
    ) -> np.ndarray | None:
        """Hits of one pass revolution on a known state, in closed form.

        ``addrs`` is one revolution of a ring strided by ``stride`` and
        only the loads flagged in ``pending`` reach this cache (all of
        them at the first level of a path).  Two states are answered
        without rows or per-load work — every state a timed pass or a
        protocol probe starts from:

        * **flushed and empty**: a pending load hits exactly when the
          previous pending load has its (line, sector) key, since an
          ascending walk touches each key contiguously;
        * **a flush then deferred warms ``R1..Rk``**, when ``addrs`` is a
          prefix of exactly one ``Rj`` (same base and stride, at least
          ``len(addrs)`` loads) and ``Rj..Rk`` are pairwise line-disjoint.
          This is the LRU stack distance.  Since its last warm touch, a
          line ``x`` of ``Rj`` in set ``s`` has seen the lines of ``Rj`` in
          ``s`` after it (warm), every line of the later rings in ``s``, and
          the pending lines of ``Rj`` in ``s`` before it (this pass; lines
          of ``R1..Rj-1`` and skipped lines were touched earlier).  With
          ``c_s`` the ring-wide count of ``Rj..Rk`` lines in ``s``, ``x``'s
          first pending load hits exactly when ``c_s`` minus the skipped
          lines before ``x`` in ``s`` is at most ``ways``: in a whole pass,
          when ``c_s <= ways``.  Its warm touched every sector the pass
          reads, and after a miss only repeats of a (line, sector) hit.
          When ``Rj`` is the only ring left and, strided within the line
          size, over-subscribes no set (:meth:`_ring_fits`), or when
          ``c_s <= ways`` for every pending line, every pending load hits
          with no per-set count or ranking at all.

        Otherwise returns ``None`` without changing anything.  A pass it
        answers leaves the cache as it found it.
        """
        v = self._virtual
        if v is None:
            if self._valid_sets:
                return None
            hits = np.zeros(addrs.size, dtype=bool)
            idx = np.flatnonzero(pending)
            if idx.size:
                hits[idx] = self._repeats(addrs[idx])
            return hits
        flush_first, rings = v
        n = int(addrs.size)
        a0 = int(addrs[0])
        held = [
            j
            for j, (base, nbytes, s) in enumerate(rings)
            if base == a0 and s == stride and nbytes // s >= n
        ]
        if not (flush_first and len(held) == 1):
            return None
        rings = rings[held[0] :]
        line = self.line_size
        if len(rings) > 1:
            spans = sorted(
                (base // line, (base + (nbytes // s - 1) * s) // line)
                for base, nbytes, s in rings
            )
            if any(lo <= prev_hi for (_, prev_hi), (lo, _) in zip(spans, spans[1:])):
                return None
        elif stride <= line and self._ring_fits(a0, rings[0][1] // stride, stride):
            return pending.copy()
        if not pending.any():
            return pending.copy()
        lines = addrs // line
        counts = sum(
            self._ring_set_counts(base, nbytes // s, s, lines) for base, nbytes, s in rings
        )
        fits = counts <= self.ways
        if pending.all():
            return fits | self._repeats(addrs)
        if (pending <= fits).all():
            return pending.copy()
        # Lines skipped earlier in the set: their last touch was the warm,
        # before x's, so they do not count against x.
        run_first = np.empty(n, dtype=bool)
        run_first[0] = True
        np.not_equal(lines[1:], lines[:-1], out=run_first[1:])
        sets = lines[run_first] % self.num_sets
        line_of = np.cumsum(run_first) - 1
        idx = np.flatnonzero(pending)
        touched = np.zeros(sets.size, dtype=bool)
        touched[line_of[idx]] = True
        t = np.flatnonzero(touched)
        seen = _group_rank(sets)[3]
        seen[t] -= _group_rank(sets[t])[3]
        hits = np.zeros(n, dtype=bool)
        hits[idx] = (counts - seen[line_of] <= self.ways)[idx]
        hits[idx] |= self._repeats(addrs[idx])
        return hits

    def _repeats(self, addrs: np.ndarray) -> np.ndarray:
        """Per load of an ascending walk: same (line, sector) as the previous."""
        key = addrs // self.line_size * self.sectors_per_line + (
            (addrs % self.line_size) // self.fetch_granularity
        )
        dup = np.empty(addrs.size, dtype=bool)
        dup[0] = False
        np.equal(key[1:], key[:-1], out=dup[1:])
        return dup

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
