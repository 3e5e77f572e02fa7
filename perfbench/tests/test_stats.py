"""The percentile rule: the highest percentile with >= 10 samples beyond."""

import pytest

from perfbench.stats import nearest_rank, tail_percentile


@pytest.mark.parametrize("n, pct", [
    (20, 50.0),      # exactly 10 samples above the median
    (39, 50.0),      # 75th would leave 9 beyond
    (40, 75.0),
    (100, 90.0),     # 95th would leave 5 beyond
    (1000, 99.0),
    (9999, 99.0),    # 99.9th would leave 9 beyond
    (10000, 99.9),
])
def test_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(n)]
    chosen, value = tail_percentile(values)
    assert chosen == pct
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10


def test_too_few_samples_have_no_tail():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([]) is None


def test_tail_value_is_nearest_rank_of_unsorted_input():
    values = [float(v) for v in reversed(range(100))]
    assert tail_percentile(values) == (90.0, 89.0)
    assert nearest_rank(sorted(values), 50.0) == 49.0

