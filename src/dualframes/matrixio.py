"""Matrix file format: comma-separated rows, one per line, with an optional
``# field=real|complex|rational`` header.

Entry grammar: decimal (``1.5``, ``2e-3``), exact rational ``p/q`` or bare
integer, and complex ``a+bi`` / ``a-bi`` (single token, no parentheses).
Rational-looking entries promote the whole matrix to the exact path unless
the header insists on a floating field.  Written files round-trip: exact
matrices bit-identically, floating ones through shortest round-trip decimals.
"""

from __future__ import annotations

import os
import re
import tempfile
from fractions import Fraction

import numpy as np

from .errors import ParseError
from .numerics import FIELD_COMPLEX, FIELD_RATIONAL, FIELD_REAL, field_of

# an unsigned decimal with an optional signed exponent, as repr writes it
_NUM = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_COMPLEX_RE = re.compile(
    rf"^(?P<re>[+-]?{_NUM})?(?P<im>[+-](?:{_NUM})?)i$"
    rf"|^(?P<only>[+-]?(?:{_NUM})?)i$"
)


def _parse_entry(token):
    """Return (value, kind) with kind in {rational, real, complex}."""
    token = token.strip()
    if not token:
        raise ParseError("empty matrix entry")
    if token.endswith("i") and not token.endswith("inf"):
        m = _COMPLEX_RE.match(token)
        if not m:
            raise ParseError(f"bad complex entry {token!r}")
        try:
            if m.group("only") is not None:
                imag = m.group("only")
                imag = imag + "1" if imag in ("", "+", "-") else imag
                return complex(0.0, float(imag)), FIELD_COMPLEX
            real = float(m.group("re")) if m.group("re") else 0.0
            imag = m.group("im")
            imag = imag + "1" if imag in ("+", "-") else imag
            return complex(real, float(imag)), FIELD_COMPLEX
        except ValueError as exc:
            raise ParseError(f"bad complex entry {token!r}") from exc
    if "/" in token:
        try:
            return Fraction(token), FIELD_RATIONAL
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational entry {token!r}") from exc
    try:
        return Fraction(int(token)), "integer"
    except ValueError:
        pass
    try:
        return float(token), FIELD_REAL
    except ValueError as exc:
        raise ParseError(f"bad entry {token!r}") from exc


def parse_matrix(text):
    """Parse MatrixFile text into a numpy matrix of the inferred field."""
    declared = None
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = re.match(r"#\s*field\s*=\s*(real|complex|rational)", stripped)
            if m:
                declared = m.group(1)
            continue
        try:
            rows.append([_parse_entry(tok) for tok in stripped.split(",")])
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise ParseError("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("rows have unequal lengths")
    kinds = {kind for row in rows for _, kind in row}
    if FIELD_COMPLEX in kinds:
        field = FIELD_COMPLEX
    elif declared != FIELD_REAL and (
        FIELD_RATIONAL in kinds or kinds == {"integer"}
    ):
        # explicit p/q entries (or an all-integer body) select the exact
        # path; decimals mixed in are taken at their exact binary value
        field = FIELD_RATIONAL
    else:
        field = FIELD_REAL
    if declared == FIELD_COMPLEX:
        field = FIELD_COMPLEX
    if declared == FIELD_RATIONAL:
        if any(kind == FIELD_COMPLEX for row in rows for _, kind in row):
            raise ParseError("complex entries in a rational-declared file")
        field = FIELD_RATIONAL

    if field == FIELD_RATIONAL:
        out = np.empty((len(rows), width), dtype=object)
        for i, row in enumerate(rows):
            for j, (val, kind) in enumerate(row):
                if kind == FIELD_REAL:
                    val = Fraction(val)  # exact binary value of the decimal
                out[i, j] = Fraction(val)
        return out
    dtype = complex if field == FIELD_COMPLEX else float
    return np.array(
        [[dtype(complex(val) if dtype is complex else float(val)) for val, _ in row]
         for row in rows],
        dtype=dtype,
    )


def read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _format_entry(val, field):
    if field == FIELD_RATIONAL:
        f = Fraction(val)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if field == FIELD_COMPLEX:
        c = complex(val)
        sign = "+" if c.imag >= 0 else "-"
        return f"{c.real!r}{sign}{abs(c.imag)!r}i"
    return repr(float(val))


def format_matrix(mat):
    mat = np.asarray(mat)
    field = field_of(mat)
    lines = [f"# field={field}"]
    for row in mat:
        lines.append(",".join(_format_entry(v, field) for v in row))
    return "\n".join(lines) + "\n"


def write_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file in the target
    directory and a rename, so ``path`` never holds a partial file; the
    temporary file is removed on any failure."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix(mat, path):
    """Atomic write of a MatrixFile (see ``write_atomic``)."""
    write_atomic(path, format_matrix(mat))
