"""Tests for repro.utils.stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.stats import (
    bincount_counts,
    encode_pairs,
    ccdf,
    fraction_at_least,
    fraction_at_most,
    gini,
    lorenz_curve,
    ragged_arange,
    sorted_unique,
)


class TestCcdf:
    def test_simple(self):
        x, p = ccdf(np.array([1, 1, 2, 3]))
        np.testing.assert_array_equal(x, [1, 2, 3])
        np.testing.assert_allclose(p, [1.0, 0.5, 0.25])

    def test_single_value(self):
        x, p = ccdf(np.array([7, 7, 7]))
        np.testing.assert_array_equal(x, [7])
        np.testing.assert_allclose(p, [1.0])

    def test_empty(self):
        x, p = ccdf(np.array([]))
        assert x.size == 0 and p.size == 0

    @given(
        hnp.arrays(np.int64, st.integers(1, 60), elements=st.integers(0, 50))
    )
    @settings(max_examples=40, deadline=None)
    def test_properties(self, values):
        x, p = ccdf(values)
        assert np.all(np.diff(x) > 0)  # distinct ascending values
        assert np.all(np.diff(p) < 1e-12)  # non-increasing probabilities
        assert p[0] == pytest.approx(1.0)
        assert p[-1] > 0


class TestFractions:
    def test_at_most(self):
        assert fraction_at_most(np.array([1, 2, 3, 4]), 2) == 0.5

    def test_at_least(self):
        assert fraction_at_least(np.array([1, 2, 3, 4]), 3) == 0.5

    def test_complementarity(self):
        v = np.array([1, 5, 5, 9])
        assert fraction_at_most(v, 4) + fraction_at_least(v, 5) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            fraction_at_most(np.array([]), 1)
        with pytest.raises(ValueError, match="empty"):
            fraction_at_least(np.array([]), 1)


class TestBincount:
    def test_counts(self):
        np.testing.assert_array_equal(
            bincount_counts(np.array([0, 2, 2]), minlength=4), [1, 0, 2, 0]
        )

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            bincount_counts(np.array([-1, 0]))


class TestLorenzGini:
    def test_equal_distribution_gini_zero(self):
        assert gini(np.full(100, 5.0)) == pytest.approx(0.0, abs=0.02)

    def test_concentrated_distribution_gini_high(self):
        v = np.zeros(100)
        v[0] = 100.0
        assert gini(v) > 0.9

    def test_lorenz_endpoints(self):
        x, y = lorenz_curve(np.array([1.0, 2.0, 3.0]))
        assert x[0] == 0.0 and y[0] == 0.0
        assert x[-1] == pytest.approx(1.0) and y[-1] == pytest.approx(1.0)

    def test_lorenz_convex(self):
        _, y = lorenz_curve(np.array([1.0, 2.0, 4.0, 8.0]))
        assert np.all(np.diff(y, 2) >= -1e-12)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError, match="all-zero"):
            lorenz_curve(np.zeros(5))

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 50),
            elements=st.floats(0.0, 100.0, allow_nan=False),
        ).filter(lambda a: a.sum() > 0)
    )
    @settings(max_examples=40, deadline=None)
    def test_gini_bounds(self, values):
        g = gini(values)
        assert -0.01 <= g <= 1.0


class TestRaggedArange:
    def test_basic(self):
        np.testing.assert_array_equal(
            ragged_arange(np.array([3, 1, 2])), [0, 1, 2, 0, 0, 1]
        )

    def test_zeros_skipped(self):
        np.testing.assert_array_equal(
            ragged_arange(np.array([0, 2, 0, 1, 0])), [0, 1, 0]
        )

    def test_empty(self):
        assert ragged_arange(np.array([], dtype=np.int64)).size == 0

    def test_all_zero(self):
        assert ragged_arange(np.zeros(5, dtype=np.int64)).size == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            ragged_arange(np.array([1, -1]))

    @given(
        hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 20))
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_python_reference(self, lengths):
        expected = np.concatenate(
            [np.arange(n) for n in lengths] or [np.empty(0, dtype=np.int64)]
        )
        np.testing.assert_array_equal(ragged_arange(lengths), expected)


class TestEncodePairs:
    def test_roundtrip(self):
        major = np.array([0, 3, 3, 7])
        minor = np.array([2, 0, 4, 1])
        enc = encode_pairs(major, minor, 5)
        assert enc.dtype == np.int64
        np.testing.assert_array_equal(enc // 5, major)
        np.testing.assert_array_equal(enc % 5, minor)

    def test_narrow_inputs_widen(self):
        # int16 inputs whose product overflows int16 must not wrap.
        major = np.array([30_000], dtype=np.int16)
        minor = np.array([5], dtype=np.int16)
        enc = encode_pairs(major, minor, 10_000)
        assert int(enc[0]) == 30_000 * 10_000 + 5

    def test_empty(self):
        enc = encode_pairs(np.empty(0), np.empty(0), 7)
        assert enc.size == 0 and enc.dtype == np.int64

    def test_boundary_accepts_exact_fit(self):
        n_minor = 2**32
        top = (np.iinfo(np.int64).max - (n_minor - 1)) // n_minor
        enc = encode_pairs(
            np.array([top]), np.array([n_minor - 1]), n_minor
        )
        assert int(enc[0]) == top * n_minor + n_minor - 1

    def test_overflow_raises_with_counts(self):
        n_minor = 2**32
        top = (np.iinfo(np.int64).max - (n_minor - 1)) // n_minor + 1
        with pytest.raises(OverflowError, match="song/peer"):
            encode_pairs(
                np.array([top]), np.array([0]), n_minor, what="song/peer pairs"
            )

    def test_invalid_n_minor(self):
        with pytest.raises(ValueError, match="n_minor"):
            encode_pairs(np.array([1]), np.array([0]), 0)


_UNIQUE_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


def _assert_same_unique(values: np.ndarray) -> None:
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSortedUnique:
    """Oracle: bitwise-equal to ``np.unique`` on integer and bool input."""

    @pytest.mark.parametrize("dtype", _UNIQUE_DTYPES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_np_unique_integers(self, dtype, data):
        values = data.draw(
            hnp.arrays(
                dtype,
                st.integers(0, 200),
                elements=hnp.from_dtype(np.dtype(dtype)),
            )
        )
        _assert_same_unique(values)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.bool_, st.integers(0, 50)))
    def test_matches_np_unique_bool(self, values):
        _assert_same_unique(values)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=2, max_dims=3, min_side=0, max_side=8),
            elements=st.integers(-5, 5),
        )
    )
    def test_flattens_nd_input(self, values):
        _assert_same_unique(values)
        assert sorted_unique(values).ndim == 1

    @pytest.mark.parametrize("dtype", [*_UNIQUE_DTYPES, np.bool_])
    def test_empty(self, dtype):
        _assert_same_unique(np.empty(0, dtype=dtype))
        _assert_same_unique(np.empty((0, 3), dtype=dtype))

    def test_scalar_and_list_input(self):
        _assert_same_unique(np.int64(7))
        np.testing.assert_array_equal(sorted_unique([3, 1, 3, 2]), [1, 2, 3])

    def test_extreme_values(self):
        for dtype in _UNIQUE_DTYPES:
            info = np.iinfo(dtype)
            _assert_same_unique(
                np.array([info.max, info.min, info.max, 0, info.min], dtype=dtype)
            )

    def test_float_input_keeps_np_unique_nan_folding(self):
        values = np.array([np.nan, 1.0, np.nan, -0.0, 0.0])
        assert sorted_unique(values).tobytes() == np.unique(values).tobytes()
