"""The ``l1size`` ablation's NumPy cache model against ``Cache``."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import Cache
from repro.errors import ConfigurationError
from repro.experiments import ExperimentScale, experiment_registry
from repro.experiments.l1_size_ablation import lru_miss_ratio
from repro.scenario.driver import default_params


@given(lines=st.lists(st.integers(0, 40), max_size=300),
       sets=st.sampled_from([1, 2, 4, 8]),
       ways=st.sampled_from([1, 2]))
@settings(max_examples=400, deadline=None)
def test_matches_cache_on_random_streams(lines, sets, ways):
    cache = Cache(sets * ways * 4, 4, ways)
    for line in lines:
        cache.access(line)
    assert lru_miss_ratio(np.array(lines, dtype=np.int64), sets, ways) \
        == cache.miss_ratio


def test_rejects_ways_other_than_1_or_2():
    params = default_params("l1size")
    params = replace(params, axes={**params.axes, "ways": (1, 4)})
    scale = ExperimentScale(instructions_per_benchmark=2_000, level=2)
    with pytest.raises(ConfigurationError, match="ways axis"):
        experiment_registry()["l1size"](scale, params=params)
