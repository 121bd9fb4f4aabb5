"""Deterministic fill, seed derivation, and in-place accumulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipesgd.buffers import (
    buffer_add,
    derived_seed,
    mix64,
    seeded_fill,
    splitmix64_stream,
)
from pipesgd.errors import ShapeError

_MASK = (1 << 64) - 1


def _scalar_splitmix(seed: int, count: int) -> list[int]:
    """Textbook scalar splitmix64, used as the oracle for the vectorized fill."""
    out = []
    state = seed & _MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, _MASK])
def test_stream_matches_scalar_reference(seed):
    got = splitmix64_stream(seed, 17)
    want = _scalar_splitmix(seed, 17)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == want


@given(seed=st.integers(min_value=0, max_value=_MASK), count=st.integers(1, 200))
@settings(max_examples=50, deadline=None)
def test_stream_is_prefix_stable(seed, count):
    """Drawing more values never changes the ones already drawn."""
    short = splitmix64_stream(seed, count)
    long = splitmix64_stream(seed, count + 13)
    assert np.array_equal(short, long[:count])


def test_mix64_avalanche_on_single_bit():
    a = mix64(0x1234_5678_9ABC_DEF0)
    b = mix64(0x1234_5678_9ABC_DEF1)
    assert bin(a ^ b).count("1") > 16


def test_derived_seed_tag_order_matters():
    assert derived_seed(7, 1, 2) != derived_seed(7, 2, 1)
    assert derived_seed(7, 1) != derived_seed(7, 2)
    assert derived_seed(7, 1) == derived_seed(7, 1)


class TestSeededFill:
    def test_deterministic(self):
        assert np.array_equal(seeded_fill(9, 64, 0.5), seeded_fill(9, 64, 0.5))

    def test_seed_changes_values(self):
        assert not np.array_equal(seeded_fill(9, 64, 0.5), seeded_fill(10, 64, 0.5))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 17.5])
    def test_bounded_by_scale(self, scale):
        values = seeded_fill(3, 10_000, scale)
        assert np.all(np.abs(values) <= scale)
        # a fill that never uses half its range would be a mapping bug
        assert np.max(values) > 0.5 * scale
        assert np.min(values) < -0.5 * scale

    def test_zero_scale_is_all_zero(self):
        assert np.all(seeded_fill(3, 100, 0.0) == 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            seeded_fill(3, 0, 1.0)


class TestBufferAdd:
    def test_accumulates_in_place(self):
        y = np.array([1.0, 2.0, 3.0])
        x = np.array([10.0, 20.0, 30.0])
        out = buffer_add(x, y)
        assert out is y
        assert np.array_equal(y, [11.0, 22.0, 33.0])
        assert np.array_equal(x, [10.0, 20.0, 30.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            buffer_add(np.zeros(3), np.zeros(4))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_expression(self, values):
        """Same bits as the ``y + 1.0 * x`` fold it replaced."""
        x = np.array(values)
        y = np.linspace(-1.0, 1.0, len(values))
        expected = y + 1.0 * x
        got = buffer_add(x, y.copy())
        assert np.array_equal(got, expected)
