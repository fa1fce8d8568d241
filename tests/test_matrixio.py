from fractions import Fraction

import numpy as np
import pytest

from dualframes.errors import ParseError
from dualframes.matrixio import (
    format_matrix,
    parse_matrix,
    read_matrix,
    write_matrix,
)


class TestParse:
    def test_integers_take_exact_path(self):
        mat = parse_matrix("1,-2\n0,3\n")
        assert mat.dtype == object
        assert mat[0, 1] == Fraction(-2)

    def test_rationals(self):
        mat = parse_matrix("1/2,-3/4\n")
        assert mat[0, 0] == Fraction(1, 2)
        assert mat[0, 1] == Fraction(-3, 4)

    def test_decimals_stay_float(self):
        mat = parse_matrix("1.5,2e-3\n-0.25,4\n")
        assert mat.dtype == float
        assert mat[0, 1] == 2e-3

    def test_complex(self):
        mat = parse_matrix("1+2i,-i\n3i,4\n")
        assert mat.dtype == complex
        assert mat[0, 0] == 1 + 2j
        assert mat[0, 1] == -1j
        assert mat[1, 0] == 3j
        assert mat[1, 1] == 4 + 0j

    def test_field_header_real_demotes_integers(self):
        mat = parse_matrix("# field=real\n1,2\n3,4\n")
        assert mat.dtype == float

    def test_field_header_rational_with_decimal(self):
        # exact binary value of the decimal literal
        mat = parse_matrix("# field=rational\n0.5,1\n")
        assert mat[0, 0] == Fraction(1, 2)

    def test_field_header_rational_rejects_complex(self):
        with pytest.raises(ParseError):
            parse_matrix("# field=rational\n1i,2\n")

    def test_whitespace_and_comments_ignored(self):
        mat = parse_matrix("# a comment\n\n 1 , 2 \n3,4\n")
        assert mat.shape == (2, 2)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_matrix("")
        with pytest.raises(ParseError):
            parse_matrix("1,2\n3\n")
        with pytest.raises(ParseError):
            parse_matrix("1,abc\n")
        with pytest.raises(ParseError):
            parse_matrix("1,,2\n")
        with pytest.raises(ParseError):
            parse_matrix("1/0\n")


class TestRoundTrip:
    def test_rational_bit_identical(self):
        mat = np.array(
            [[Fraction(1, 3), Fraction(-7)], [Fraction(0), Fraction(22, 7)]],
            dtype=object,
        )
        back = parse_matrix(format_matrix(mat))
        assert back.tolist() == mat.tolist()

    def test_float_shortest_roundtrip(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((3, 4))
        back = parse_matrix(format_matrix(mat))
        np.testing.assert_array_equal(back, mat)

    def test_complex_roundtrip(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        back = parse_matrix(format_matrix(mat))
        np.testing.assert_array_equal(back, mat)

    def test_complex_signed_exponents(self):
        mat = parse_matrix("1.5-5.6e-05i,1.5+2.5e+20i,-5e-05i,5e-05i\n")
        assert mat.tolist() == [[1.5 - 5.6e-05j, 1.5 + 2.5e20j, -5e-05j, 5e-05j]]

    def test_complex_tiny_and_huge_imaginary_parts(self, tmp_path):
        # repr writes these imaginary parts with a signed exponent
        mat = np.array([
            [1.5 - 5.6113812682230684e-05j, 1 + 1j, -2 + 3e-300j],
            [2 + 2.5e20j, 0.5 - 2j, 7 - 1.25e17j],
        ])
        path = tmp_path / "c.csv"
        write_matrix(mat, path)
        np.testing.assert_array_equal(read_matrix(path), mat)

    def test_header_written(self):
        text = format_matrix(np.eye(2))
        assert text.splitlines()[0] == "# field=real"


def test_write_is_atomic_and_readable(tmp_path):
    path = tmp_path / "m.csv"
    mat = np.array([[Fraction(1, 2), Fraction(3)]], dtype=object)
    write_matrix(mat, path)
    assert read_matrix(path).tolist() == mat.tolist()
    # no leftover temp files
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
