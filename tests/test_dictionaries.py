"""Dictionary generators: determinism, normalization, structure."""

import numpy as np
import pytest

from greedycert.dictionaries import (
    convolutive,
    example1,
    from_matrix,
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
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_matrix_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            from_matrix(a)

    def test_from_matrix_normalizes_on_request(self):
        a = np.array([[3.0, 0.0], [4.0, 2.0]])
        d = from_matrix(a, normalize=True)
        assert np.allclose(np.linalg.norm(d.matrix, axis=0), 1.0, atol=1e-15)
