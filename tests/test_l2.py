"""Unit tests for the secondary cache model."""

import pytest

from repro.core.cache import INVALID
from repro.core.config import L2Config, WritePolicy
from repro.core.hierarchy import MemorySystem
from repro.core.l2 import SecondaryCache
from repro.errors import ConfigurationError

from conftest import load, run_ops, store, tiny_config


class TestUnified:
    def test_instruction_and_data_share_the_array(self):
        l2 = SecondaryCache(L2Config(size_words=1024, line_words=32,
                                     split=False))
        assert l2.instruction_half is l2.data_half
        l2.instruction_half.access(5)
        hit, _ = l2.data_half.access(5)
        assert hit

    def test_write_allocates_and_dirties(self):
        l2 = SecondaryCache(L2Config(size_words=1024, line_words=32))
        hit, _ = l2.data_half.access(9, write=True)
        assert not hit
        assert l2.data_half.is_dirty(9)

    def test_dirty_victim_on_conflict(self):
        l2 = SecondaryCache(L2Config(size_words=1024, line_words=32))
        # 32 lines; line addresses 1 and 33 conflict.
        l2.data_half.access(1, write=True)
        hit, fill = l2.data_half.access(1 + 32)
        assert not hit
        assert fill.victim_dirty


class TestSplit:
    def test_halves_are_independent(self):
        l2 = SecondaryCache(L2Config(size_words=2048, line_words=32,
                                     split=True))
        l2.instruction_half.access(5)
        hit, _ = l2.data_half.access(5)
        assert not hit  # the data half never saw line 5

    def test_default_split_halves_capacity(self):
        l2 = SecondaryCache(L2Config(size_words=2048, line_words=32,
                                     split=True))
        assert l2.instruction_half.size_words == 1024
        assert l2.data_half.size_words == 1024

    def test_physical_split_sizes(self):
        config = L2Config(size_words=2048, line_words=32, split=True,
                          i_size_words=512, d_size_words=4096,
                          i_access_time=2)
        l2 = SecondaryCache(config)
        assert l2.instruction_half.size_words == 512
        assert l2.data_half.size_words == 4096
        assert config.effective_i_access == 2
        assert config.effective_d_access == 6

    def test_split_instruction_half_never_dirty(self):
        l2 = SecondaryCache(L2Config(size_words=2048, line_words=32,
                                     split=True))
        l2.instruction_half.access(1)
        _, fill = l2.instruction_half.access(1 + 16)
        assert not fill.victim_dirty

    def test_flush(self):
        l2 = SecondaryCache(L2Config(size_words=2048, line_words=32,
                                     split=True))
        l2.instruction_half.access(1)
        l2.data_half.access(2, write=True)
        assert l2.flush() == 1  # one dirty line dropped
        assert not l2.contains(1, instruction=True)


class TestConfigValidation:
    def test_overrides_require_split(self):
        with pytest.raises(ConfigurationError):
            L2Config(size_words=1024, line_words=32, split=False,
                     i_size_words=512).validate()

    def test_dirty_penalty_floor(self):
        with pytest.raises(ConfigurationError):
            L2Config(miss_penalty_clean=100,
                     miss_penalty_dirty=50).validate()

    def test_contains_routes_by_side(self):
        l2 = SecondaryCache(L2Config(size_words=2048, line_words=32,
                                     split=True))
        l2.data_half.access(3)
        assert l2.contains(3)
        assert not l2.contains(3, instruction=True)


class TestMissHandlerArrays:
    """The miss handlers hold a direct-mapped half's tag and dirty lists,
    so flushing or restoring the L2 must write into those same lists."""

    @staticmethod
    def _assert_bound(ms):
        for half, tags, dirty in ((ms.l2.instruction_half, ms._l2i_tags,
                                   ms._l2i_dirty),
                                  (ms.l2.data_half, ms._l2d_tags,
                                   ms._l2d_dirty)):
            assert tags is half._tags and dirty is half._dirty

    def test_load_state_and_flush_keep_the_lists(self):
        config = tiny_config(WritePolicy.WRITE_BACK, l2_split=True,
                             l2_size=2048)
        ms = MemorySystem(config)
        run_ops(ms, [store(256), load(256 + 64), load(2048)])
        restored = MemorySystem(config)
        restored.load_state(ms.state_dict())
        self._assert_bound(restored)
        assert restored._l2d_tags == ms._l2d_tags
        assert restored._l2d_dirty == ms._l2d_dirty
        assert restored.l2.flush() == 1
        self._assert_bound(restored)
        assert set(restored._l2d_tags) == {INVALID}
