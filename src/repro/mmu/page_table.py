"""Virtual memory: per-process address spaces and page-coloring allocation.

The target machine translates a PID-prefixed virtual address to a physical
address using *page coloring* [TDF90]: a virtual page is always mapped to a
physical frame whose low-order frame-number bits (the "color") equal the
corresponding virtual page-number bits.  This keeps the index bits of
physically-indexed caches identical under translation, so the simulator can
study cache behaviour on physical addresses while the L1 caches remain
virtually indexed / physically tagged without inconsistent synonyms
(paper, Sections 2 and 3).

Frames are allocated on first touch and never reclaimed — the paper models no
paging activity, and at simulation scale physical memory is unbounded.

To keep distinct processes from piling onto the same cache sets (their
virtual layouts are all alike), the allocator offsets each process's colors
by a PID-dependent stride, the page-coloring equivalent of the "bin hopping"
real colored allocators use.  Within a process, sequential virtual pages
still receive sequential colors, so contiguous regions never self-conflict
within the color span — the property page coloring exists to provide.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.params import MAX_PROCESSES, PAGE_WORDS, is_power_of_two, log2i

#: Default number of page colors.  256 colors x 4 KW pages = 1024 KW, enough
#: to keep index bits stable for every cache size the paper sweeps.
DEFAULT_COLORS = 256

#: PID stride for color bin-hopping (odd, so every color is reachable).
_PID_COLOR_STRIDE = 97

_PAGE_SHIFT = log2i(PAGE_WORDS)

#: :meth:`PageTable.translate_batch` looks pages up in a slot table over
#: a column's page span when the span is at most this many slots per
#: record, and sorts the column's page runs otherwise.  A full synthetic
#: batch's data addresses span 2-4 slots per record and its event pcs a
#: few pages; a trace's short last batch spans far more and is sorted.
DENSE_SLOTS_PER_RECORD = 4


def int_dtype(values: np.ndarray) -> type:
    """int32 when every value fits it (or there is none), else int64."""
    info = np.iinfo(np.int32)
    if not len(values) or (info.min <= values.min()
                           and values.max() <= info.max):
        return np.int32
    return np.int64


class PageTable:
    """Global first-touch frame allocator with page coloring.

    Attributes:
        colors: number of page colors (power of two).
    """

    def __init__(self, colors: int = DEFAULT_COLORS):
        if not is_power_of_two(colors):
            raise ConfigurationError("page color count must be a power of two")
        self.colors = colors
        self._map: Dict[Tuple[int, int], int] = {}
        self._next_in_color = [0] * colors

    def __len__(self) -> int:
        return len(self._map)

    @property
    def frames_allocated(self) -> int:
        """Total number of physical frames handed out."""
        return len(self._map)

    def translate_page(self, pid: int, vpage: int) -> int:
        """Map a (pid, virtual page) to its physical frame, allocating on miss."""
        if not 0 <= pid < MAX_PROCESSES:
            raise ConfigurationError(f"pid {pid} out of range")
        key = (pid, vpage)
        frame = self._map.get(key)
        if frame is None:
            color = (vpage + pid * _PID_COLOR_STRIDE) % self.colors
            frame = color + self.colors * self._next_in_color[color]
            self._next_in_color[color] += 1
            self._map[key] = frame
        return frame

    def translate(self, pid: int, word_addr: int) -> int:
        """Translate a single virtual word address to a physical word address."""
        vpage, offset = divmod(word_addr, PAGE_WORDS)
        return self.translate_page(pid, vpage) * PAGE_WORDS + offset

    def translate_batch(self, pid: int, word_addrs: np.ndarray) -> np.ndarray:
        """Vectorized translation of an int64 column of virtual word
        addresses.

        Pages not seen before are allocated in ascending page order, as
        :meth:`translate_page` over the column's sorted distinct pages
        would, which is deterministic for a deterministic trace.  Each
        address then moves to its frame as
        ``address + ((frame - page) << page shift)``, with ``frame - page``
        found per page in one of two ways:

        * a slot table over the column's page span, when the span is at
          most ``DENSE_SLOTS_PER_RECORD`` slots per record (every full
          synthetic batch);
        * otherwise a sort of the column's runs of equal pages (a short
          column over a wide span, such as a trace's last batch), whose
          result is repeated over each run.
        """
        word_addrs = np.asarray(word_addrs, dtype=np.int64)
        n = len(word_addrs)
        if not n:
            return word_addrs.copy()
        vpages = word_addrs >> _PAGE_SHIFT
        lo = int(vpages.min())
        span = int(vpages.max()) - lo + 1
        if span > DENSE_SLOTS_PER_RECORD * n:
            deltas = self._run_deltas(pid, vpages)
        else:
            # Peak memory: the pages, the slot table (1 B, then 4 B per
            # slot) and the int32 deltas.  The shifted deltas overwrite
            # the pages in place and become the result.
            vpages -= lo
            seen = np.zeros(span, dtype=bool)
            seen[vpages] = True
            slots = np.flatnonzero(seen)
            del seen
            pages = slots + lo
            deltas = self._frames(pid, pages) - pages
            table = np.zeros(span, dtype=int_dtype(deltas))
            table[slots] = deltas
            deltas = table.take(vpages)
            del table
        np.left_shift(deltas, _PAGE_SHIFT, out=vpages, dtype=np.int64)
        del deltas
        vpages += word_addrs
        return vpages

    def _frames(self, pid: int, pages: np.ndarray) -> np.ndarray:
        """The frames of ascending ``pages``, allocating first touches."""
        return np.array([self.translate_page(pid, vpage)
                         for vpage in pages.tolist()], dtype=np.int64)

    def _run_deltas(self, pid: int, vpages: np.ndarray) -> np.ndarray:
        """``frame - page`` per record, through a sort of the page runs."""
        n = len(vpages)
        run_start = np.empty(n, dtype=bool)
        run_start[:1] = True
        np.not_equal(vpages[1:], vpages[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        del run_start
        pages, inverse = np.unique(vpages[starts], return_inverse=True)
        return np.repeat((self._frames(pid, pages) - pages)[inverse],
                         np.diff(starts, append=n))

    def color_of_frame(self, frame: int) -> int:
        """The color of a physical frame."""
        return frame % self.colors

    def reset(self) -> None:
        """Forget all mappings (fresh machine)."""
        self._map.clear()
        self._next_in_color = [0] * self.colors

    # ------------------------------------------------------------- robustness

    def state_dict(self) -> dict:
        """Exact snapshot of every mapping and allocator cursor."""
        return {
            "colors": self.colors,
            "map": [[pid, vpage, frame]
                    for (pid, vpage), frame in self._map.items()],
            "next_in_color": list(self._next_in_color),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.errors import CheckpointError

        try:
            if int(state["colors"]) != self.colors:
                raise CheckpointError(
                    f"page-table snapshot has {state['colors']} colors, "
                    f"expected {self.colors}"
                )
            next_in_color = [int(n) for n in state["next_in_color"]]
            if len(next_in_color) != self.colors:
                raise CheckpointError(
                    "page-table snapshot cursor length mismatch")
            self._map = {(int(pid), int(vpage)): int(frame)
                         for pid, vpage, frame in state["map"]}
            self._next_in_color = next_in_color
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed page-table snapshot: {exc}") from exc
