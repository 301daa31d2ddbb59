"""The worker pool returns the serial results, in item order, for any cap."""

import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from drnets._parallel import parallel_map


def _tagged_square(item):
    index, value = item
    return index, value * value


@settings(max_examples=5)
@given(st.lists(st.integers(-(10**6), 10**6), max_size=12))
def test_parallel_map_independent_of_worker_count(values):
    items = list(enumerate(values))
    expected = [(i, v * v) for i, v in items]
    for threads in ("1", "2"):
        with mock.patch.dict(os.environ, {"DRNETS_THREADS": threads}):
            assert parallel_map(_tagged_square, items) == expected
