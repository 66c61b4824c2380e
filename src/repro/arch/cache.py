"""Cache models for the SMP machine.

The Sun E4500 studied in the paper pairs each 400 MHz UltraSPARC II with
a 16 KB direct-mapped on-chip L1 data cache and a 4 MB external L2.  The
ordered-vs-random list-ranking gap in Fig. 1 (right) is entirely a cache
phenomenon, so the reproduction computes hit/miss behaviour from the
algorithms' *actual* address streams instead of asserting it.

Each cache level keeps exactly one state, which can be advanced one
access at a time (the SMP cycle engine's loads and stores) or a whole
address stream at a time (the SMP model's trace mode):

* A direct-mapped level — both E4500 levels — holds one line tag per
  set.  A single access reads and writes its set's tag; a whole stream
  runs vectorized (:func:`simulate_direct_mapped` is the cold-start
  form): an access hits iff the *most recent previous access that
  mapped to the same set* was to the same line, which one stable
  argsort answers for every access — O(m log m) NumPy work for a
  stream of m addresses, no Python loop.
* :class:`Cache` — a straightforward set-associative LRU cache advanced
  one access at a time.  Exact and easy to audit: the reference the
  tests check the vectorized simulator against, and the state of an
  associative level.
* :class:`CacheHierarchy` — composes L1 and L2: the L2 sees exactly the
  L1 miss stream, in program order.  Its per-access lookup, built with
  the levels, resolves both direct-mapped levels in one call (every
  configuration in use; an associative level is asked through
  :meth:`Cache.access`), since the SMP cycle engine makes one such call
  per simulated load and store.

Addresses everywhere are non-negative *word* addresses (64-bit words);
``line_words`` converts to cache-line granularity.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "CacheConfig",
    "CacheStats",
    "Cache",
    "CacheHierarchy",
    "simulate_direct_mapped",
    "hierarchy_stats",
]


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Parameters
    ----------
    size_words:
        Total capacity in 64-bit words (16 KB L1 = 2048 words).
    line_words:
        Line size in words (32-byte UltraSPARC II L1 line = 4 words).
    associativity:
        1 for direct-mapped.  The E4500's L1 and external L2 are both
        direct-mapped, which is what lets the fast vectorized simulation
        cover the whole hierarchy.
    """

    size_words: int
    line_words: int
    associativity: int = 1

    def __post_init__(self) -> None:
        if not _is_pow2(self.size_words):
            raise ConfigurationError(f"cache size must be a power of two, got {self.size_words}")
        if not _is_pow2(self.line_words):
            raise ConfigurationError(f"line size must be a power of two, got {self.line_words}")
        if self.line_words > self.size_words:
            raise ConfigurationError("line size exceeds cache size")
        if self.associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if self.n_lines % self.associativity != 0:
            raise ConfigurationError("associativity must divide the number of lines")

    @property
    def n_lines(self) -> int:
        return self.size_words // self.line_words

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity

    @property
    def line_shift(self) -> int:
        return int(self.line_words).bit_length() - 1


@dataclass
class CacheStats:
    """Hit/miss counts for one cache level over one access stream."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0

    def __iadd__(self, other: "CacheStats") -> "CacheStats":
        self.accesses += other.accesses
        self.hits += other.hits
        return self


class Cache:
    """Set-associative LRU cache advanced one access at a time.

    This is the *reference* model: exact LRU replacement, arbitrary
    associativity.  It is deliberately simple (a list of line tags per
    set, most-recently-used last) so its behaviour is obvious; the
    direct-mapped tag tables are validated against it in the test
    suite, and it is the whole state of an associative hierarchy level.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[list[int]] = [[] for _ in range(config.n_sets)]
        self.stats = CacheStats()

    def access(self, word_addr: int) -> bool:
        """Access one word; return ``True`` on hit.  Misses allocate."""
        line = word_addr >> self.config.line_shift
        idx = line % self.config.n_sets
        ways = self._sets[idx]
        self.stats.accesses += 1
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.stats.hits += 1
            return True
        ways.append(line)
        if len(ways) > self.config.associativity:
            ways.pop(0)
        return False

    def access_stream(self, word_addrs: np.ndarray) -> np.ndarray:
        """Access a whole stream; return a boolean hit mask in program order."""
        hits = np.empty(len(word_addrs), dtype=bool)
        for i, a in enumerate(np.asarray(word_addrs, dtype=np.int64)):
            hits[i] = self.access(int(a))
        return hits

    def flush(self) -> None:
        """Invalidate all lines (statistics are preserved)."""
        self._sets = [[] for _ in range(self.config.n_sets)]


def simulate_direct_mapped(config: CacheConfig, word_addrs: np.ndarray) -> np.ndarray:
    """Vectorized exact simulation of a cold direct-mapped cache.

    ``config`` must have ``associativity`` 1; ``word_addrs`` are word
    addresses in program order.  Returns the boolean hit mask aligned
    with ``word_addrs``.
    """
    if config.associativity != 1:
        raise ConfigurationError("simulate_direct_mapped requires associativity 1")
    return _advance_direct_mapped(config, np.full(config.n_sets, -1, dtype=np.int64), word_addrs)


def _advance_direct_mapped(
    config: CacheConfig, table: np.ndarray, word_addrs: np.ndarray
) -> np.ndarray:
    """Run a stream through a direct-mapped tag table; return its hit mask.

    ``table[s]`` is the line set ``s`` holds (−1 when empty).  Access *i*
    hits iff the latest earlier access to its set — or, for the set's
    first access, the table — holds the same line.  One stable sort by
    set groups each set's accesses in program order, which answers that
    for every access at once; each group's last line becomes the set's
    new tag, written back into ``table`` in place.
    """
    addrs = np.asarray(word_addrs, dtype=np.int64)
    m = len(addrs)
    if m == 0:
        return np.zeros(0, dtype=bool)
    lines = addrs >> config.line_shift
    sets = lines % config.n_sets
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = lines[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    first[1:] = sorted_sets[1:] != sorted_sets[:-1]
    prev = np.empty(m, dtype=np.int64)
    prev[1:] = sorted_lines[:-1]
    prev[first] = table[sorted_sets[first]]
    last = np.empty(m, dtype=bool)
    last[:-1] = first[1:]
    last[-1] = True
    table[sorted_sets[last]] = sorted_lines[last]
    hits = np.empty(m, dtype=bool)
    hits[order] = prev == sorted_lines
    return hits


class _DirectMapped:
    """One direct-mapped level: its whole state is a line tag per set.

    Mirrors :class:`Cache` (``config``, ``stats``, ``_sets``, ``access``,
    ``access_stream``), so a hierarchy drives either kind of level the
    same way.  Streams run over a zero-copy NumPy view of ``_sets``.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._sets = array("q", [-1]) * config.n_sets  # −1: empty set
        self._shift = config.line_shift
        self._mask = config.n_sets - 1

    def access(self, word_addr: int) -> bool:
        """Access one word; return ``True`` on hit.  Misses allocate."""
        line = word_addr >> self._shift
        idx = line & self._mask
        stats = self.stats
        stats.accesses += 1
        if self._sets[idx] == line:
            stats.hits += 1
            return True
        self._sets[idx] = line
        return False

    def access_stream(self, word_addrs: np.ndarray) -> np.ndarray:
        """Access a whole stream; return a boolean hit mask in program order."""
        table = np.frombuffer(self._sets, dtype=np.int64)
        hits = _advance_direct_mapped(self.config, table, word_addrs)
        self.stats += CacheStats(len(hits), int(hits.sum()))
        return hits


def _make_level(config: CacheConfig):
    return _DirectMapped(config) if config.associativity == 1 else Cache(config)


def _lookup(l1, l2):
    """The per-access lookup of a hierarchy with levels ``l1`` and ``l2``:
    ``access(word_addr)`` returns the level that served the word
    (``"l1"``, ``"l2"`` or ``"mem"``).  When both levels are
    direct-mapped it resolves both in one frame, reading and writing the
    levels' own tag tables and :class:`CacheStats` objects in place, so
    it stays valid across :meth:`_DirectMapped.access_stream` calls; an
    associative level is asked through its own ``access``.
    """
    if type(l1) is not _DirectMapped or type(l2) is not _DirectMapped:

        def access(word_addr: int) -> str:
            if l1.access(word_addr):
                return "l1"
            if l2.access(word_addr):
                return "l2"
            return "mem"

        return access

    tags1, shift1, mask1, stats1 = l1._sets, l1._shift, l1._mask, l1.stats
    tags2, shift2, mask2, stats2 = l2._sets, l2._shift, l2._mask, l2.stats

    def access(word_addr: int) -> str:
        line = word_addr >> shift1
        idx = line & mask1
        stats1.accesses += 1
        if tags1[idx] == line:
            stats1.hits += 1
            return "l1"
        tags1[idx] = line
        line = word_addr >> shift2
        idx = line & mask2
        stats2.accesses += 1
        if tags2[idx] == line:
            stats2.hits += 1
            return "l2"
        tags2[idx] = line
        return "mem"

    return access


def _pack_level(level) -> tuple:
    """One level as plain data: geometry, statistics and set contents."""
    c, s = level.config, level.stats
    geometry = (c.size_words, c.line_words, c.associativity)
    return geometry, (s.accesses, s.hits), copy.deepcopy(level._sets)


def _unpack_level(packed: tuple):
    geometry, stats, sets = packed
    level = _make_level(CacheConfig(*geometry))
    level.stats = CacheStats(*stats)
    level._sets = copy.deepcopy(sets)
    return level


class CacheHierarchy:
    """An L1 + L2 hierarchy fed by word addresses.

    The L2 observes exactly the stream of L1 misses, in program order —
    the inclusion policy the E4500 used.  Each level has one state (see
    the module docstring), which :attr:`access` (the SMP cycle engine's
    loads and stores) and :meth:`simulate_stream` (the SMP model's trace
    mode) both advance: each call sees the lines earlier calls left, so
    a multi-step algorithm's later steps benefit from the data its
    earlier steps touched, as on the real machine.

    ``access(word_addr)`` accesses one word and returns the level that
    served it: ``"l1"``, ``"l2"`` or ``"mem"``.  It is a function bound
    to this hierarchy's levels when they are built (by the constructor
    or :meth:`from_state`), so copy a hierarchy through
    :meth:`to_state`/:meth:`from_state`, which rebinds it.
    """

    def __init__(self, l1: CacheConfig, l2: CacheConfig) -> None:
        self.l1 = l1
        self.l2 = l2
        self._l1 = _make_level(l1)
        self._l2 = _make_level(l2)
        self.access = _lookup(self._l1, self._l2)

    @property
    def l1_stats(self) -> CacheStats:
        """L1 statistics accumulated over every access and stream."""
        return self._l1.stats

    @property
    def l2_stats(self) -> CacheStats:
        """L2 statistics accumulated over every access and stream."""
        return self._l2.stats

    def simulate_stream(self, word_addrs: np.ndarray) -> tuple[CacheStats, CacheStats]:
        """Run ``word_addrs`` through both levels, starting from current state.

        Returns per-level :class:`CacheStats` for *this stream only*; the
        same counts also accumulate onto :attr:`l1_stats` / :attr:`l2_stats`.
        """
        addrs = np.asarray(word_addrs, dtype=np.int64)
        l1_hits = self._l1.access_stream(addrs)
        l2_hits = self._l2.access_stream(addrs[~l1_hits])
        return (
            CacheStats(accesses=len(l1_hits), hits=int(l1_hits.sum())),
            CacheStats(accesses=len(l2_hits), hits=int(l2_hits.sum())),
        )

    # -- serializable-state contract (checkpoint/restore) ---------------------

    STATE_VERSION = 2

    def to_state(self) -> dict:
        """Full warm state, one picklable entry per level."""
        return {
            "version": CacheHierarchy.STATE_VERSION,
            "l1": _pack_level(self._l1),
            "l2": _pack_level(self._l2),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CacheHierarchy":
        """Rebuild a hierarchy from :meth:`to_state` output."""
        from ..errors import CheckpointError

        if state.get("version") != cls.STATE_VERSION:
            raise CheckpointError(
                f"cache state version {state.get('version')!r} != {cls.STATE_VERSION}"
            )
        l1, l2 = _unpack_level(state["l1"]), _unpack_level(state["l2"])
        h = cls(l1.config, l2.config)
        h._l1, h._l2 = l1, l2
        h.access = _lookup(l1, l2)
        return h


def hierarchy_stats(
    l1: CacheConfig, l2: CacheConfig, word_addrs: np.ndarray
) -> tuple[CacheStats, CacheStats]:
    """Convenience one-shot: cold L1+L2 statistics for an address stream."""
    return CacheHierarchy(l1, l2).simulate_stream(word_addrs)
