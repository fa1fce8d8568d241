import random
from fractions import Fraction

import numpy as np
import pytest

from dualframes import matrixio
from dualframes.errors import ParseError
from dualframes.matrixio import (
    format_matrix,
    format_rows,
    parse_matrix,
    read_matrix,
    write_matrix,
)
from dualframes.numerics import FIELD_COMPLEX, FIELD_RATIONAL, field_of


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


# entry atoms of the fuzz texts: every entry kind of the grammar, the forms
# the bulk gate must keep away from float()/complex(), and entries whose
# per-entry value differs from float()/complex() of the text (-0, overflow)
FUZZ_ATOMS = [
    "1", "-7", "+4", "0", "-0", "12345678901234567890", "1" + "0" * 400,
    "-0.0", ".5", "3.", "1e+5", "1E-3", "1e999", "1/2", "-3/4", "2/0", "i",
    "-i", "+i", "2i", "-5e-05i", "1.5-5.6e-05i", "0.25+i", "3-0i", "1+-2i",
    "-.5e-3i", "inf", "nan", "1_0", "(1+2i)", "1i2", " 3 ", "\t2.5", "e",
    "1 i", "",
]
FUZZ_HEADERS = [
    "", "# field=real\n", "# field=complex\n", "# field=rational\n",
    "# a comment\n",
]


def _fuzz_text(rng):
    rows, width = rng.randint(1, 3), rng.randint(1, 4)
    lines = []
    for _ in range(rows):
        cells = width + (rng.random() < 0.05)  # now and then a ragged row
        # now and then an entry of two atoms, such as "1" "i" or "-" "0"
        atoms = [1 + (rng.random() < 0.15) for _ in range(cells)]
        lines.append(",".join(
            "".join(rng.choice(FUZZ_ATOMS) for _ in range(k)) for k in atoms
        ))
        if rng.random() < 0.1:
            lines.append("")
    return rng.choice(FUZZ_HEADERS) + rng.choice(["\n", "\r\n"]).join(lines)


def _outcome(parse, text):
    # the per-entry path lets ValueError and OverflowError through on some
    # entries (inf, nan or 1e999 in a rational file, a 400-digit integer in
    # a floating one): both paths must raise the same
    try:
        mat = parse(text)
    except (ParseError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if mat.dtype == object:
        return mat.shape, [(type(v), v) for v in mat.ravel().tolist()]
    return mat.shape, mat.dtype.str, mat.tobytes()


def _per_entry(text):
    return matrixio._parse_entries(*matrixio._data_lines(text))


def test_bulk_parse_matches_per_entry_path():
    rng = random.Random(20120)
    bulk_taken = 0
    for _ in range(6000):
        text = _fuzz_text(rng)
        assert _outcome(parse_matrix, text) == _outcome(_per_entry, text), text
        declared, lines = matrixio._data_lines(text)
        bulk_taken += bool(lines) and matrixio._parse_bulk(declared, lines) is not None
    assert bulk_taken >= 300  # the bulk path is exercised, not only bypassed


def _format_entry(val, field):
    """The per-entry formatter that ``format_rows`` replaced, kept as the
    reference."""
    if field == FIELD_RATIONAL:
        f = Fraction(val)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if field == FIELD_COMPLEX:
        c = complex(val)
        sign = "+" if c.imag >= 0 else "-"
        return f"{c.real!r}{sign}{abs(c.imag)!r}i"
    return repr(float(val))


SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 1e300, 0.1,
           -2.5, 5.6e-05, -3e-300, 7e-05]


@pytest.mark.parametrize("mat", [
    np.array([SPECIAL, SPECIAL[::-1]]),
    np.array([[complex(a, b) for b in SPECIAL] for a in SPECIAL]),
    np.array([[1, -2, 0], [3, 4, 5]]),
    np.array([[0.1, -0.0, np.inf]], dtype=np.float32),
    np.array([[1 + 1e-05j, -0.0 - 0.0j]], dtype=np.complex64),
    np.array([[1, Fraction(-1, 3), 0], [Fraction(7), -4, Fraction(22, 7)]],
             dtype=object),
    np.zeros((0, 3)),
], ids=["real", "complex", "int", "float32", "complex64", "rational", "empty"])
def test_format_rows_matches_per_entry_formatter(mat):
    field = field_of(mat)
    expected = [[_format_entry(v, field) for v in row] for row in mat]
    assert format_rows(mat) == expected
    assert format_matrix(mat) == "\n".join(
        [f"# field={field}"] + [",".join(row) for row in expected]) + "\n"
