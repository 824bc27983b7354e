"""Dictionary generators: determinism, normalization, structure."""

from math import ceil
from types import SimpleNamespace

import numpy as np
import pytest

from greedycert.dictionaries import (
    _normalize,
    _stack,
    convolutive,
    example1,
    gaussian,
    hybrid,
)
from greedycert.exceptions import EmptyAtomError


class TestGaussian:
    def test_shape_and_unit_columns(self):
        d = gaussian(20, 35, 5)
        assert d.matrix.shape == (20, 35)
        assert np.allclose(np.linalg.norm(d.matrix, axis=0), 1.0, atol=1e-12)

    def test_seed_determinism(self):
        assert np.array_equal(gaussian(10, 10, 42).matrix, gaussian(10, 10, 42).matrix)
        assert not np.array_equal(gaussian(10, 10, 42).matrix, gaussian(10, 10, 43).matrix)


class TestHybrid:
    def test_zero_offset_reproduces_gaussian(self):
        assert np.array_equal(hybrid(15, 25, 0.0, 9).matrix, gaussian(15, 25, 9).matrix)

    def test_unit_columns(self):
        d = hybrid(30, 50, 100.0, 1)
        assert np.allclose(np.linalg.norm(d.matrix, axis=0), 1.0, atol=1e-12)

    def test_large_offset_drives_coherence_up(self):
        # atoms collapse toward the all-ones direction
        d = hybrid(100, 1000, 1000.0, 0)
        g = d.matrix.T @ d.matrix
        off = g[~np.eye(1000, dtype=bool)]
        assert np.abs(off).mean() > 0.9


class TestConvolutive:
    def test_toeplitz_structure_without_decimation(self):
        d = convolutive(50, 2.0, 1)
        length = 12  # ceil(6 * 2)
        assert d.matrix.shape == (50 + length - 1, 50)
        # columns are shifted copies of one normalized pulse
        for j in (0, 13, 49):
            col = d.matrix[:, j]
            assert np.array_equal(np.nonzero(col)[0], np.arange(j, j + length))
            assert np.allclose(col[j : j + length], d.matrix[0:length, 0], atol=1e-15)

    def test_narrow_pulse_gives_identity(self):
        d = convolutive(8, 1.0 / 6.0, 1)
        assert np.array_equal(d.matrix, np.eye(8))

    def test_unit_columns(self):
        d = convolutive(40, 3.0, 2)
        assert np.allclose(np.linalg.norm(d.matrix, axis=0), 1.0, atol=1e-12)

    def test_overcomplete_shapes(self):
        # wide pulse, no decimation: (n + L - 1) x n
        d = convolutive(2710, 50.0, 1)
        assert d.matrix.shape == (3009, 2710)
        # decimation by 5: ceil((n + L - 1) / 5) rows
        d = convolutive(4940, 10.0, 5)
        assert d.matrix.shape == (1000, 4940)

    def test_decimation_below_pulse_length_raises(self):
        with pytest.raises(EmptyAtomError):
            convolutive(6, 1.0 / 6.0, 2)  # pulse length 1, half the atoms vanish

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            convolutive(10, 0.0, 1)
        with pytest.raises(ValueError):
            convolutive(10, 1.0, 0)


class TestTwoPairDictionary:
    def test_quarter_pi_matrix(self):
        d = example1(np.pi / 4, np.pi / 4)
        v = np.sqrt(0.5)
        want = np.array([[v, v, 0, 0], [-v, v, v, v], [0, 0, v, -v]])
        assert np.abs(d.matrix - want).max() < 1e-15

    def test_unit_columns_any_angles(self):
        d = example1(0.23, 1.31)
        assert np.allclose(np.linalg.norm(d.matrix, axis=0), 1.0, atol=1e-15)


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: hybrid(5, 8, 1e200, 0),
        lambda: _normalize(np.full((3, 2), 1e300)),
    ], ids=["hybrid", "normalize"])
    def test_overflowing_norm_rejected(self, make):
        # the squares overflow, and dividing by an infinite norm would
        # return zero columns
        with pytest.raises(ValueError, match="column 0 has a norm that overflows"):
            make()


def reference_gaussian(m, n, seed):
    g = np.random.default_rng(seed).standard_normal((m, n))
    return g / np.linalg.norm(g, axis=0)


def reference_hybrid(m, n, t_max, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n))
    t = rng.uniform(0.0, t_max, n)
    return (g + t) / np.linalg.norm(g + t, axis=0)


def reference_convolutive(n, sigma, d):
    """The pulse matrix built one column at a time."""
    length = ceil(6 * sigma)
    grid = np.arange(length) - length // 2
    pulse = np.exp(-(grid**2) / (2.0 * sigma**2))
    m_full = n + length - 1
    a = np.zeros((len(range(0, m_full, d)), n))
    for j in range(n):
        first = -(-j // d) * d
        rows = np.arange(first, min(j + length, m_full), d)
        a[rows // d, j] = pulse[rows - j]
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise EmptyAtomError("zero column")
    return a / norms


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (3, 40), (20, 60), (200, 600)]


class TestBitPins:
    """The generators normalize in place; every matrix keeps the bits of
    the plain formula."""

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 11, 2**31 - 1])
    def test_gaussian(self, m, n, seed):
        assert same_bits(gaussian(m, n, seed).matrix, reference_gaussian(m, n, seed))

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    @pytest.mark.parametrize("t_max", [0.0, 0.5, 10.0, 1000.0])
    def test_hybrid(self, m, n, seed, t_max):
        assert same_bits(hybrid(m, n, t_max, seed).matrix, reference_hybrid(m, n, t_max, seed))

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 1.5, 2.0, 3.3, 5.0, 10.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 60, 200])
    def test_convolutive(self, n, sigma, d):
        try:
            want = reference_convolutive(n, sigma, d)
        except EmptyAtomError:
            with pytest.raises(EmptyAtomError):
                convolutive(n, sigma, d)
            return
        assert same_bits(convolutive(n, sigma, d).matrix, want)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(5, 1), (5, 4)])
    def test_normalize_in_any_layout(self, order, shape):
        # a C-ordered matrix of several columns takes the einsum sum, a
        # single column or an F-ordered matrix numpy's norm
        x = np.asarray(np.random.default_rng(3).standard_normal(shape), order=order)
        want = x / np.linalg.norm(x, axis=0)
        assert _normalize(x) is x and same_bits(x, want)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(4, 1), (4, 3)])
    def test_zero_column_raises(self, order, shape):
        x = np.asarray(np.ones(shape), order=order)
        x[:, -1] = 0.0
        with pytest.raises(EmptyAtomError, match=f"column {shape[1] - 1}"):
            _normalize(x)

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("t_max", [None, 0.0, 0.5, 10.0, 1000.0])
    def test_stack_slices(self, m, n, t_max):
        # the seeds are drawn straight into one stack, normalized in one
        # pass: each slice keeps the bits of its own generator call
        if t_max is None:
            seeds = [0, 1, 11, 2**31 - 1]
            spec = SimpleNamespace(dictionary="gaussian")
            want = [gaussian(m, n, seed).matrix for seed in seeds]
        else:
            seeds = [0, 7, 2**31 - 1]
            spec = SimpleNamespace(dictionary="hybrid", t_max=t_max)
            want = [hybrid(m, n, t_max, seed).matrix for seed in seeds]
        stack = _stack(spec, m, n, seeds)
        assert same_bits(stack, np.stack(want))

    @pytest.mark.parametrize("n", [1, 4])
    def test_zero_column_in_a_stack_raises(self, n):
        stack = np.ones((3, 4, n))
        stack[2, :, n - 1] = 0.0
        with pytest.raises(EmptyAtomError, match=f"column {n - 1} of trial 2 is identically"):
            _normalize(stack)

    def test_overflowing_column_in_a_stack_raises(self):
        stack = np.ones((3, 4, 5))
        stack[1, :, 3] = 1e300
        with pytest.raises(ValueError, match="column 3 of trial 1 has a norm that overflows"):
            _normalize(stack)
        spec = SimpleNamespace(dictionary="hybrid", t_max=1e200)
        with pytest.raises(ValueError, match="column 0 of trial 0 has a norm that overflows"):
            _stack(spec, 5, 8, [4, 5])
