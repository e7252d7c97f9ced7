"""CSV text whose every cell is byte-identical to C's ``%.8e``.

Cells are formatted with numpy, one chunk of bytes per table handed in (the
callers hand in a curve's row blocks, never a whole curve); the few cells whose
digits the fast path cannot prove (see ``_csv_block``) are written by ``%``.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

import numpy as np

_HEAD_WORD = int.from_bytes(b",\x000.", "little")   # separator, sign, leading digit, point


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The CSV formatter's tables, built on first use (commands writing no CSV skip them).

    10**(8 - e) for e = -290..290, each within one ulp; "0000".."9999" as
    4-byte words; per e, the words "e", sign, hundreds or NUL, tens; units.
    """
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    pairs = np.stack(np.broadcast_arrays(digits[:, None], digits), axis=-1).reshape(100, 2)
    words = pairs.view("<u2")
    quads = np.stack(np.broadcast_arrays(words, words.T), axis=-1).ravel().view("<u4")
    exps = np.arange(-290, 291)
    text = np.zeros((exps.size, 8), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(exps < 0, ord("-"), ord("+"))
    hundreds, rest = np.divmod(np.abs(exps), 100)
    text[:, 2] = np.where(hundreds > 0, hundreds + ord("0"), 0)
    text[:, 3:5] = pairs[rest]
    exp_head, exp_units = text.view("<u4").T.copy()
    return 10.0 ** (8 - exps), quads, exp_head, exp_units


def csv_chunks(header: str, tables: Iterable) -> Iterator[bytes]:
    """CSV bytes of tables of floats, one after another: the header, one chunk
    per non-empty table, a newline.

    Every cell is exactly ``"%.8e" % x``.  A table is taken from ``tables``
    only when the one before it is written, so a generator of row blocks
    streams a whole file through one block's memory.
    """
    yield header.encode()
    for rows in tables:
        table = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
        if len(table):
            yield _csv_block(table)
    yield b"\n"


def _csv_block(table: np.ndarray) -> bytes:
    """Rows of ``%.8e`` cells, each row opened by a newline and each other cell by a comma.

    A cell fills a 20-byte slot of five 4-byte words (separator, sign or NUL,
    leading digit and point; two groups of four digits; the exponent in two
    words), and the NUL bytes are dropped at the end.  With e = floor(log10|x|),
    y = |x|*10**(8 - e) is within 4e-7 of its exact value (the power is within
    one ulp and the product rounds once).  So where y lies in
    [1e8 + 1, 1e9 - 1] and more than 0.5 - 1e-6 from a half-integer, rint(y) is
    the correctly rounded 9-digit mantissa and e the exponent.  Every other
    cell (±0, inf, nan, near-ties, decade edges, subnormals) is written by ``%``.
    """
    pow10, quads, exp_head, exp_units = _format_tables()
    rows, cols = table.shape
    x = table.ravel()
    mag = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        exp = np.minimum(np.fmax(np.floor(np.log10(mag)), -290.0), 290.0)  # nan: -290
        exp = exp.astype(np.intp) + 290   # an index into the exponent tables
        y = mag * pow10[exp]
        mant = np.rint(y)
        fast = (np.abs(y - mant) < 0.5 - 1e-6) & (y >= 1e8 + 1) & (y <= 1e9 - 1)
    mant[~fast] = 1e8   # any 9-digit value: ``%`` rewrites these slots
    # Exact in floats: every value is an integer below 2**53, and no quotient
    # lies within an ulp of the integer above it.
    lead = np.floor(mant / 1e8)
    rest = mant - lead * 1e8
    upper = np.floor(rest / 1e4)
    slots = np.empty((rows, cols, 5), "<u4")
    slots[:, :, 0] = (lead * 0x10000 + (x < 0) * (ord("-") * 0x100)
                      + _HEAD_WORD).reshape(rows, cols)
    slots.view(np.uint8)[:, 0, 0] = ord("\n")
    words = slots.reshape(-1, 5)
    words[:, 1] = quads[upper.astype(np.intp)]
    words[:, 2] = quads[(rest - upper * 1e4).astype(np.intp)]
    words[:, 3] = exp_head[exp]
    words[:, 4] = exp_units[exp]
    slow = np.flatnonzero(~fast)
    words.view(np.uint8)[slow, 1:] = np.frombuffer(
        b"".join([(b"%.8e" % v).ljust(19, b"\0") for v in x[slow].tolist()]),
        np.uint8).reshape(-1, 19)
    return slots.tobytes().translate(None, b"\0")
