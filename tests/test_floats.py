"""The CSV float kernel against ``repr``: every row must be exactly
``",".join(map(repr, row))``, and the vectorized path must carry every
cell in its range, or the properties could pass through the ``repr``
fallback alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from calib_il import floats
from calib_il.floats import rows

MATRICES = hnp.array_shapes(min_dims=2, max_dims=2, max_side=60)


def reference(matrix) -> list[str]:
    return [",".join(map(repr, row)) for row in np.asarray(matrix).tolist()]


def assert_rows_match(matrix):
    assert list(rows(matrix)) == reference(matrix)


def fallbacks(monkeypatch, matrix) -> list[float]:
    """The cells that ``rows(matrix)`` leaves to ``repr``; the rows must
    still match."""
    seen = []
    monkeypatch.setattr(floats, "repr", lambda v: seen.append(v) or repr(v), raising=False)
    assert_rows_match(matrix)
    return seen


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@settings(deadline=None, derandomize=True, max_examples=150)
@given(hnp.arrays(np.uint64, MATRICES))
def test_raw_bit_patterns_match_repr(bits):
    matrix = bits.view(np.float64)
    assert_rows_match(np.where(np.isfinite(matrix), matrix, 0.0))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(hnp.arrays(np.float64, MATRICES,
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_hypothesis_floats_match_repr(matrix):
    assert_rows_match(matrix)


def test_a_million_log_uniform_cells_match_repr():
    rng = np.random.default_rng(2024)
    matrix = rng.choice([-1.0, 1.0], (10000, 100)) * 10.0 ** rng.uniform(-6, 18, (10000, 100))
    assert_rows_match(matrix)


@pytest.mark.parametrize("values", [
    pytest.param(2.0 ** np.arange(-30, 61), id="powers-of-two"),
    pytest.param([float(f"{k}e{e}") for k in range(1, 200) for e in range(-6, 18)],
                 id="k-times-powers-of-ten"),
    pytest.param([1e-4, 1e16, 1e-5, 1e17, 1e15, 9999999999999998.0, 0.001], id="bounds"),
    pytest.param(np.arange(-1000, 1001).tolist() + [2.0**52, 2.0**53, 2.0**53 + 2, 1e15 + 1],
                 id="integers"),
])
def test_edge_values_and_their_neighbours_match_repr(values):
    cells = with_neighbours(values)
    assert_rows_match(np.concatenate([cells, -cells]).reshape(-1, 3))


def test_zeros_subnormals_and_non_finite_cells_match_repr():
    assert_rows_match(np.array([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308],
                                [np.inf, -np.inf, np.nan, 1.7976931348623157e308, 1.5]]))


def test_rows_of_any_width_and_count():
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (1, floats.CHUNK_CELLS + 1), (floats.CHUNK_CELLS + 5, 1),
                  (333, 7), (0, 4)]:
        assert_rows_match(rng.normal(size=shape))


def test_every_positional_cell_is_certified(monkeypatch):
    """A standard-normal matrix and a wide-shaped logits matrix (1000 x
    100, features times weights): only exponent-form cells take ``repr``."""
    rng = np.random.default_rng(5)
    normal = rng.standard_normal((1000, 100))
    logits = rng.standard_normal((1000, 64)) @ rng.normal(0, 0.5, (64, 100)) + 0.1
    for matrix in (normal, logits):
        tiny = sorted(v for v in matrix.ravel().tolist() if abs(v) < 1e-4)
        assert sorted(fallbacks(monkeypatch, matrix)) == tiny


def test_an_exact_tie_is_left_to_repr(monkeypatch):
    """2**50 + 0.25 lies halfway between its two shortest candidates,
    ...24.2 and ...24.3; ``repr`` picks the even one."""
    tie = 2.0**50 + 0.25
    assert fallbacks(monkeypatch, np.array([[tie, 1.5]])) == [tie]
    assert list(rows(np.array([[tie]]))) == ["1125899906842624.2"]
