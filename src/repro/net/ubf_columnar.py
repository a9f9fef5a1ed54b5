"""Columnar (struct-of-arrays) core for the UBF data plane.

The per-object decision path — one :class:`~repro.net.firewall.Packet`, one
dict probe, one log record per flow — caps a node far below the paper's
"per-packet cost near zero" promise (§IV-D) once millions of flows/sec are
in play.  This module holds the array primitives the batch fast path is
built on:

* :class:`FlowBatch` — preallocated parallel int64 columns (src-uid /
  listener-uid / listener-egid / flow-id) plus a reusable uint8 verdict
  bitmap, so a steady-state decision loop allocates nothing per flow;
* :class:`ColumnarVerdictCache` — the decision cache as flat open-addressed
  int arrays instead of per-key dict entries: vectorized batch lookup,
  two-generation rotation for LRU bounding, and logical-clock TTL expiry
  (the strict-zone posture knob);
* :func:`in_sorted` — vectorized membership of uid columns in a sorted
  egid-allow-set array (``np.searchsorted``), replacing per-row frozenset
  probes.

Verdict encoding in bitmaps: ``V_DROP=0``, ``V_ACCEPT=1``; ``V_MISS=255``
doubles as "no verdict yet" in :class:`FlowBatch` and "not cached" in
lookups.  All hashing is arithmetic on ints (fixed mixing primes), so
layouts are PYTHONHASHSEED-stable and two runs probe identical slot
sequences.
"""

from __future__ import annotations

import numpy as np

from repro.net.firewall import Verdict
from repro.sim.metrics import MetricSet

#: verdict codes stored in uint8 bitmaps
V_DROP = 0
V_ACCEPT = 1
#: "no verdict yet" in a FlowBatch; "not cached" in a cache lookup
V_MISS = 255

#: column sentinel: identity not stamped / no listener on the port
NO_ID = -1

# open-addressed slot states (key column k0)
_EMPTY = -1
_TOMB = -2

# slot-hash mixing primes: arithmetic, so the layout never depends on
# hash() or PYTHONHASHSEED
_P1 = 1_000_003
_P2 = 8_191


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def in_sorted(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Vectorized ``values ∈ members`` for 1-D int arrays, *members* sorted."""
    if members.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(members, values)
    np.minimum(pos, members.size - 1, out=pos)
    return members[pos] == values


def to_verdicts(bitmap: np.ndarray) -> list[Verdict]:
    """Decode a verdict bitmap into :class:`Verdict` enums (for comparison
    against the per-object paths; the hot loop never calls this)."""
    return [Verdict.ACCEPT if b == V_ACCEPT else Verdict.DROP
            for b in bitmap]


class FlowBatch:
    """Preallocated parallel columns describing one burst of flows.

    Columns use ``NO_ID`` (-1) for "absent": an unstamped ``src_uid`` means
    the packet carried no credential (cache ineligible), a ``listener_uid``
    of -1 means nothing is bound to the destination port.  The verdict
    bitmap is part of the batch so the decision loop can reuse one buffer
    across chunks; ``load()`` re-fills in place and never reallocates.
    """

    __slots__ = ("capacity", "n", "src_uid", "listener_uid",
                 "listener_egid", "flow_id", "verdict")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("FlowBatch capacity must be >= 1")
        self.capacity = capacity
        self.n = 0
        self.src_uid = np.full(capacity, NO_ID, dtype=np.int64)
        self.listener_uid = np.full(capacity, NO_ID, dtype=np.int64)
        self.listener_egid = np.full(capacity, NO_ID, dtype=np.int64)
        self.flow_id = np.zeros(capacity, dtype=np.int64)
        self.verdict = np.full(capacity, V_MISS, dtype=np.uint8)

    def load(self, src_uid, listener_uid, listener_egid,
             flow_id=None) -> "FlowBatch":
        """Fill the first ``len(src_uid)`` rows from array-likes, in place."""
        n = len(src_uid)
        if n > self.capacity:
            raise ValueError(f"batch of {n} exceeds capacity {self.capacity}")
        self.n = n
        self.src_uid[:n] = src_uid
        self.listener_uid[:n] = listener_uid
        self.listener_egid[:n] = listener_egid
        if flow_id is not None:
            self.flow_id[:n] = flow_id
        self.verdict[:n] = V_MISS
        return self

    def push(self, src_uid: int, listener_uid: int, listener_egid: int,
             flow_id: int = 0) -> int:
        """Append one row; returns its index."""
        i = self.n
        if i >= self.capacity:
            raise ValueError("FlowBatch full")
        self.src_uid[i] = src_uid
        self.listener_uid[i] = listener_uid
        self.listener_egid[i] = listener_egid
        self.flow_id[i] = flow_id
        self.verdict[i] = V_MISS
        self.n = i + 1
        return i

    def reset(self) -> "FlowBatch":
        self.n = 0
        return self

    def verdicts(self) -> np.ndarray:
        """The live slice of the verdict bitmap (a view, not a copy)."""
        return self.verdict[: self.n]

    @property
    def nbytes(self) -> int:
        return (self.src_uid.nbytes + self.listener_uid.nbytes
                + self.listener_egid.nbytes + self.flow_id.nbytes
                + self.verdict.nbytes)


class _Generation:
    """One open-addressed table: parallel key/verdict/stamp arrays."""

    __slots__ = ("slots", "mask", "k0", "k1", "k2", "verdict", "stamp",
                 "live", "fill", "max_probe")

    def __init__(self, slots: int):
        self.slots = slots
        self.mask = slots - 1
        self.k0 = np.full(slots, _EMPTY, dtype=np.int64)
        self.k1 = np.full(slots, _EMPTY, dtype=np.int64)
        self.k2 = np.full(slots, _EMPTY, dtype=np.int64)
        self.verdict = np.zeros(slots, dtype=np.uint8)
        self.stamp = np.zeros(slots, dtype=np.int64)
        self.live = 0       # stored entries
        self.fill = 0       # occupied slots incl. tombstones
        self.max_probe = 0  # max insertion displacement ever seen

    @property
    def nbytes(self) -> int:
        return (self.k0.nbytes + self.k1.nbytes + self.k2.nbytes
                + self.verdict.nbytes + self.stamp.nbytes)


class ColumnarVerdictCache:
    """Flat open-addressed verdict cache with LRU bounding and TTL.

    Keys are (initiator_uid, listener_uid, listener_egid) triples stored in
    parallel int64 arrays; a verdict byte and a logical-time stamp ride in
    sibling arrays.  Memory per entry is 5 fixed-width cells (~34 bytes at
    50% load ≈ 68 bytes/slot pair) versus hundreds of bytes for a dict
    entry holding a tuple key — the "memory per million cached verdicts"
    number E27 reports.

    **LRU bounding** uses two rotating generations (the classic flat-cache
    trick): inserts go to the *current* table; when it reaches half of
    ``capacity`` the *previous* generation is dropped wholesale (its
    entries counted as ``reason=lru`` evictions) and current becomes
    previous.  A hit in the previous generation is promoted into current,
    so anything touched within the last ``capacity/2`` insertions survives
    rotation — segmented LRU without per-entry link fields.

    **TTL** (``ttl`` in logical decision ticks, None = no expiry) is
    checked at lookup: an entry older than ``ttl`` is tombstoned and
    counted as ``reason=ttl``.  Strict zones use this to bound how long a
    group-membership change can keep serving a stale ACCEPT.

    Probing is linear from the arithmetic slot hash; batch lookups probe all rows in lockstep vectorized passes bounded by
    the table's worst insertion displacement.
    """

    def __init__(self, capacity: int = 65_536, *,
                 metrics: MetricSet | None = None,
                 ttl: int | None = None):
        if capacity < 2:
            raise ValueError("ColumnarVerdictCache capacity must be >= 2")
        self.capacity = capacity
        self.metrics = metrics
        self.ttl = ttl
        self.evictions = 0
        self._gen_cap = max(1, capacity // 2)
        # load factor <= 0.5 per generation keeps probe chains short
        self._slots = _next_pow2(max(8, self._gen_cap * 2))
        self._cur = _Generation(self._slots)
        self._prev = _Generation(self._slots)

    # -- accounting ---------------------------------------------------------

    def _count_evictions(self, n: int, reason: str) -> None:
        if n <= 0:
            return
        self.evictions += n
        if self.metrics is not None:
            self.metrics.counter("ubf_cache_evictions_total",
                                 reason=reason).inc(n)

    def __len__(self) -> int:
        return self._cur.live + self._prev.live

    @property
    def nbytes(self) -> int:
        """Resident array bytes (both generations)."""
        return self._cur.nbytes + self._prev.nbytes

    def clear(self) -> None:
        self._cur = _Generation(self._slots)
        self._prev = _Generation(self._slots)

    # -- write path ---------------------------------------------------------

    def _rotate(self) -> None:
        self._count_evictions(self._prev.live, "lru")
        self._prev = self._cur
        self._cur = _Generation(self._slots)

    def _insert_gen(self, gen: _Generation, k0: int, k1: int, k2: int,
                    verdict: int, stamp: int) -> None:
        a0, a1, a2 = gen.k0, gen.k1, gen.k2
        slot = (k0 * _P1 + k1 * _P2 + k2) & gen.mask
        free = -1
        d = 0
        while True:
            cur = int(a0[slot])
            if cur == k0 and int(a1[slot]) == k1 and int(a2[slot]) == k2:
                gen.verdict[slot] = verdict  # refresh in place
                gen.stamp[slot] = stamp
                return
            if cur == _EMPTY:
                break
            if cur == _TOMB and free < 0:
                free = slot  # reuse, but keep scanning for the key
            slot = (slot + 1) & gen.mask
            d += 1
        if free >= 0:
            slot = free
        else:
            gen.fill += 1
        a0[slot] = k0
        a1[slot] = k1
        a2[slot] = k2
        gen.verdict[slot] = verdict
        gen.stamp[slot] = stamp
        gen.live += 1
        if d > gen.max_probe:
            gen.max_probe = d

    def insert(self, k0: int, k1: int, k2: int, verdict: int,
               now: int = 0) -> None:
        """Store one verdict byte under the int triple, evicting LRU-wise
        (generation rotation) when the bound is reached."""
        # rotate on the entry bound, or when tombstone churn (TTL/pop under
        # a long-lived generation) has eaten the probe headroom
        if (self._cur.live >= self._gen_cap
                or self._cur.fill >= (self._slots * 3) // 4):
            self._rotate()
        self._insert_gen(self._cur, k0, k1, k2, verdict, now)

    def pop(self, k0: int, k1: int, k2: int) -> int | None:
        """Remove one entry (both generations checked); returns its verdict
        code or None.  Used by dead-host purges."""
        for gen in (self._cur, self._prev):
            slot = (k0 * _P1 + k1 * _P2 + k2) & gen.mask
            for _ in range(gen.max_probe + 1):
                cur = int(gen.k0[slot])
                if cur == _EMPTY:
                    break
                if (cur == k0 and int(gen.k1[slot]) == k1
                        and int(gen.k2[slot]) == k2):
                    gen.k0[slot] = _TOMB
                    gen.live -= 1
                    return int(gen.verdict[slot])
                slot = (slot + 1) & gen.mask
        return None

    # -- read path ----------------------------------------------------------

    def _probe(self, gen: _Generation, rows: np.ndarray, slots: np.ndarray,
               k0: np.ndarray, k1: np.ndarray, k2: np.ndarray):
        """Probe *gen* for query rows in vectorized lockstep.

        ``rows`` indexes the query arrays; ``slots`` holds each row's
        current probe position.  Returns (hit_rows, hit_slots).  Chains
        stop at EMPTY; tombstones keep probing; the loop is bounded by the
        generation's worst insertion displacement.
        """
        hit_rows: list[np.ndarray] = []
        hit_slots: list[np.ndarray] = []
        for _ in range(gen.max_probe + 1):
            if rows.size == 0:
                break
            g0 = gen.k0[slots]
            hit = ((g0 == k0[rows]) & (gen.k1[slots] == k1[rows])
                   & (gen.k2[slots] == k2[rows]))
            if hit.any():
                hit_rows.append(rows[hit])
                hit_slots.append(slots[hit])
            cont = ~(hit | (g0 == _EMPTY))
            rows = rows[cont]
            slots = (slots[cont] + 1) & gen.mask
        if not hit_rows:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        return np.concatenate(hit_rows), np.concatenate(hit_slots)

    def _expire(self, gen: _Generation, rows: np.ndarray, slots: np.ndarray,
                now: int):
        """Drop TTL-expired hits in *gen*; returns the still-fresh subset."""
        if self.ttl is None or rows.size == 0:
            return rows, slots
        stale = (now - gen.stamp[slots]) > self.ttl
        n_stale = int(stale.sum())
        if n_stale:
            gen.k0[slots[stale]] = _TOMB
            gen.live -= n_stale
            self._count_evictions(n_stale, "ttl")
        fresh = ~stale
        return rows[fresh], slots[fresh]

    def lookup(self, k0: np.ndarray, k1: np.ndarray, k2: np.ndarray,
               now: int = 0) -> np.ndarray:
        """Batch probe: returns a uint8 array of verdict codes, ``V_MISS``
        where the triple is absent (or expired).  Previous-generation hits
        are promoted into the current generation (the LRU touch)."""
        n = k0.shape[0]
        out = np.full(n, V_MISS, dtype=np.uint8)
        if n == 0:
            return out
        home = ((k0 * _P1 + k1 * _P2 + k2)
                & self._cur.mask).astype(np.intp)
        rows = np.arange(n, dtype=np.intp)
        crows, cslots = self._probe(self._cur, rows, home, k0, k1, k2)
        crows, cslots = self._expire(self._cur, crows, cslots, now)
        if crows.size:
            out[crows] = self._cur.verdict[cslots]
        missed = np.ones(n, dtype=bool)
        missed[crows] = False
        prows = rows[missed]
        if prows.size:
            prows, pslots = self._probe(self._prev, prows, home[prows],
                                        k0, k1, k2)
            prows, pslots = self._expire(self._prev, prows, pslots, now)
            if prows.size:
                out[prows] = self._prev.verdict[pslots]
                self._promote(prows, pslots, k0, k1, k2)
        return out

    def _promote(self, rows: np.ndarray, slots: np.ndarray,
                 k0: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> None:
        """Move previous-generation hits into the current generation so a
        rotation won't drop recently-touched entries.  Promotion never
        forces a rotation (that would churn mid-lookup); rows that don't
        fit simply stay where they are until their next touch."""
        gen = self._prev
        for j in range(rows.size):
            if (self._cur.live >= self._gen_cap
                    or self._cur.fill >= (self._slots * 3) // 4):
                break
            r = int(rows[j])
            s = int(slots[j])
            self._insert_gen(self._cur, int(k0[r]), int(k1[r]), int(k2[r]),
                             int(gen.verdict[s]), int(gen.stamp[s]))
            gen.k0[s] = _TOMB  # moved, not evicted: no eviction count
            gen.live -= 1
