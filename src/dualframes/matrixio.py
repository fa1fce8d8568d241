"""Matrix file format: comma-separated rows, one per line, with an optional
``# field=real|complex|rational`` header.

Entry grammar: decimal (``1.5``, ``2e-3``), exact rational ``p/q`` or bare
integer, and complex ``a+bi`` / ``a-bi`` (single token, no parentheses).
Rational-looking entries promote the whole matrix to the exact path unless
the header insists on a floating field.  Decimal and complex bodies are read
in one bulk pass, everything else entry by entry; both give the same matrix.
Written files round-trip: exact matrices bit-identically, floating ones
through shortest round-trip decimals.
"""

from __future__ import annotations

import cmath
import os
import re
import tempfile
from fractions import Fraction

import numpy as np

from .errors import ParseError, UnreadableInput, UnwritableOutput
from .numerics import FIELD_COMPLEX, FIELD_RATIONAL, FIELD_REAL, field_of

# an unsigned decimal with an optional signed exponent, as repr writes it
_NUM = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_COMPLEX_RE = re.compile(
    rf"^(?P<re>[+-]?{_NUM})?(?P<im>[+-](?:{_NUM})?)i$"
    rf"|^(?P<only>[+-]?(?:{_NUM})?)i$"
)
_HEADER_RE = re.compile(r"#\s*field\s*=\s*(real|complex|rational)")
# the characters of decimal and complex entries, separators and blanks
_BULK_RE = re.compile(r"[0-9.eE+\-i, \t]*")


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


def _data_lines(text):
    """The declared field (or None) and the ``(line number, stripped line)``
    pairs of the matrix rows; blank and ``#`` lines are skipped."""
    declared = None
    lines = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _HEADER_RE.match(stripped)
            if m:
                declared = m.group(1)
            continue
        lines.append((lineno, stripped))
    return declared, lines


def _parse_bulk(declared, lines):
    """The float or complex matrix of ``lines`` from one ``float`` or
    ``complex`` call per entry, or None where only ``_parse_entries`` gives
    the answer: rationals, an all-integer body, ``p/q``, ``inf``/``nan``,
    ragged rows and every error.

    The gate admits only characters on which ``complex()`` and ``float()``
    accept exactly the entry grammar; ``complex()`` alone would also take
    ``(1+2j)``, ``1_0`` and ``nanj``.  Integer entries go through
    ``Fraction`` on the per-entry path, so a ``-0`` entry reads +0.0 there
    and a 400-digit one overflows; results holding -0.0 or inf are
    therefore left to that path too.
    """
    body = ",".join(line for _, line in lines)
    if not _BULK_RE.fullmatch(body):
        return None
    width = lines[0][1].count(",") + 1
    if any(line.count(",") + 1 != width for _, line in lines):
        return None
    if "i" in body and declared != FIELD_RATIONAL:
        convert, body = complex, body.replace("i", "j")
    elif declared == FIELD_REAL or (
        declared is None and any(c in body for c in ".eE")
    ):
        convert = float
    else:
        return None
    try:
        out = np.array(list(map(convert, body.split(","))))
    except ValueError:
        return None
    real = out.real
    if not np.isfinite(out).all() or np.signbit(real[real == 0]).any():
        return None
    return out.reshape(len(lines), width)


def _parse_entries(declared, lines):
    """The matrix of ``lines`` parsed entry by entry (see ``_parse_entry``);
    a ParseError names the line it comes from."""
    rows = []
    for lineno, line in lines:
        try:
            rows.append([_parse_entry(tok) for tok in line.split(",")])
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

    # a decimal on the exact path is taken at its exact binary value; an
    # inf or nan has none, and an integer may not fit a float
    convert = {FIELD_RATIONAL: Fraction, FIELD_COMPLEX: complex}.get(field, float)
    values = []
    for (lineno, _), row in zip(lines, rows):
        try:
            values.append([convert(val) for val, _ in row])
        except (OverflowError, ValueError) as exc:
            raise ParseError(f"line {lineno}: entry not representable "
                             f"in the {field} field ({exc})") from exc
        # no frame has an inf or nan entry, so floats refuse them too
        if convert is not Fraction and not all(map(cmath.isfinite, values[-1])):
            raise ParseError(f"line {lineno}: non-finite entry in the "
                             f"{field} field")
    return np.array(values, dtype=object if convert is Fraction else convert)


def parse_matrix(text):
    """Parse MatrixFile text into a numpy matrix of the inferred field."""
    declared, lines = _data_lines(text)
    out = _parse_bulk(declared, lines) if lines else None
    return _parse_entries(declared, lines) if out is None else out


def read_matrix(path):
    """Parse the MatrixFile at ``path``; a file that cannot be opened or is
    not UTF-8 text raises UnreadableInput naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UnreadableInput(f"cannot read {path}: {reason}") from exc
    return parse_matrix(text)


def format_rows(mat):
    """Entry strings of ``mat``, one list per row, in the MatrixFile
    grammar: shortest round-trip decimals, ``a+bi`` / ``a-bi``, and ``p/q``
    or a bare integer for the ``int`` and ``Fraction`` entries of an exact
    matrix.  Rows become Python values one at a time, so no flat list of
    the whole matrix is built."""
    mat = np.asarray(mat)
    field = field_of(mat)
    if field == FIELD_RATIONAL:
        return [
            [str(v.numerator) if v.denominator == 1
             else f"{v.numerator}/{v.denominator}" for v in row]
            for row in mat
        ]
    if field == FIELD_COMPLEX:
        return [
            [f"{r!r}{'+' if i >= 0 else '-'}{abs(i)!r}i"
             for r, i in zip(row.real.tolist(), row.imag.tolist())]
            for row in mat
        ]
    return [list(map(repr, row.tolist()))
            for row in mat.astype(float, copy=False)]


def format_matrix(mat):
    lines = [f"# field={field_of(mat)}"]
    lines.extend(",".join(row) for row in format_rows(mat))
    return "\n".join(lines) + "\n"


def write_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file in the target
    directory and a rename, so ``path`` never holds a partial file; the
    temporary file is removed on any failure, and a failed write raises
    UnwritableOutput naming ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UnwritableOutput(
            f"cannot write {path}: {exc.strerror or exc}"
        ) from exc


def write_matrix(mat, path):
    """Atomic write of a MatrixFile (see ``write_atomic``)."""
    write_atomic(path, format_matrix(mat))
