"""Dense multilinear tensors on a fixed low-dimensional real vector space.

Everything here works with full numpy arrays: the spaces involved are tiny
(dimension at most a few dozen), so dense storage and einsum-style
contractions are the right trade-off.  A tensor of valence ``(r, k)`` with
``r`` in ``{0, 1}`` eats ``k`` vectors and returns a scalar (``r = 0``) or a
vector (``r = 1``).  The output slot of a ``(1, k)`` tensor is stored as the
leading array index, so the entries of a ``(1, 1)`` tensor are exactly the
matrix of the endomorphism.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UsageError",
    "NumericBreakdownError",
    "Tensor",
    "frobenius_inner",
    "max_abs",
    "pullback",
    "to_text",
    "from_text",
    "parse_records",
]


def _fmt(x: float) -> str:
    """``x`` in 17 significant digits, which round-trip a 64-bit float exactly."""
    return format(float(x), ".17g")


def _fmt_all(values) -> list[str]:
    """``[_fmt(x) for x in values]`` for a float array, byte for byte.

    Each value with 1e-4 <= |x| < 1e17 is laid out by one exact numpy pass
    (:func:`_fixed_point`) and each exact zero is written as ``0`` or ``-0``
    in the same pass; the rest (inf, nan, and the values that ``%.17g`` writes
    with an exponent) go through one ``%.17g`` call.  Batches of ``_BATCH``
    values bound the temporaries."""
    x = np.asarray(values, dtype=float).ravel()
    out: list[str] = []
    for i in range(0, x.size, _BATCH):
        out += _fmt_batch(x[i:i + _BATCH])
    return out


# -- exact "%.17g" over an array ---------------------------------------------
#
# "%.17g" writes x in fixed point when its decimal exponent X, taken after
# rounding x to 17 significant digits, lies in [-4, 17).  The digits are then
# those of the 17-digit integer N = round(|x| * 10**s) with s = 16 - X, with a
# point after the ones digit ("0.000..." for X < 0), and the fraction's
# trailing zeros (and a bare point) are stripped.  Each value's text is
# gathered into a row of 24 bytes, padded with spaces, so that one
# ``str.split`` of all the rows gives the strings.

_BATCH = 1 << 14
_WIDTH = 24  # the longest text, "-0.000" and 17 digits, is 23 bytes


def _digit_table() -> np.ndarray:
    """The four ASCII digits of 0..9999, one uint32 each (filled by copies, so
    that building it at import allocates little), and last ``.-`` and two
    spaces, the other bytes that a text takes."""
    table = np.empty((10**4 + 1, 4), np.uint8)
    digits = table[:-1].reshape(10, 10, 10, 10, 4)
    for i in range(4):
        digits[..., i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - i))
    table[-1] = list(b".-  ")
    return table.view(np.uint32).ravel()


def _layout_table() -> np.ndarray:
    """For each exponent X in [-4, 16], sign and index k of N's last nonzero
    digit, the source of each text column in :func:`_fixed_point`'s source
    row: ``000``, N's digits (3 to 19), ``.`` (20), ``-`` (21), spaces (22)."""
    table = bytearray()
    digits = list(range(3, 20))
    for x in range(-4, 17):
        if x >= 0:
            body = digits[:x + 1] + [20] + digits[x + 1:]
        else:
            body = [0, 20] + [0] * (-x - 1) + digits
        for row in (body, [21] + body):
            for k in range(17):
                # up to the last nonzero fraction digit, or the ones digit
                end = row.index(3 + k) + 1 if k > x else row.index(20)
                table += bytes(row[:end] + [22] * (_WIDTH - end))
    return np.frombuffer(table, np.uint8).reshape(-1, _WIDTH)


_DIGITS = _digit_table()
_LAYOUT = _layout_table()
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: v = hi + lo exactly, each half of at most 26 bits."""
    t = v * 134217729.0  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _fmt_batch(x: np.ndarray) -> list[str]:
    a = np.abs(x)
    neg = np.signbit(x)
    fast, rows = _fixed_point(a, neg)
    # every other row reads "0" or "-0": right for a zero, and replaced below
    # for the rest
    buf = np.full((x.size, _WIDTH), ord(" "), np.uint8)
    buf[:, 1] = ord("0")
    buf[neg, 0] = ord("-")
    buf[fast] = rows
    out = str(buf.data, "ascii").split()
    other = a != 0.0
    other[fast] = False
    rest = np.flatnonzero(other).tolist()
    vals = x[rest].tolist()
    for i, text in zip(rest, ("%.17g\n" * len(vals) % tuple(vals)).split("\n")):
        out[i] = text
    return out


def _fixed_point(a: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of ``a`` (absolute values) that ``%.17g`` writes in fixed
    point, and their texts as rows of ``_WIDTH`` bytes, signed where ``neg``.
    A value whose range check fails is left out, for the caller's ``%.17g``
    call."""
    cand = np.flatnonzero((a >= 1e-4) & (a < 1e17))
    v = a[cand]
    # 1. s = 16 - X from an estimate of X; X <= 16 below 1e17
    s = 16 - np.minimum(np.floor(np.log10(v)), 16.0).astype(np.intp)
    # 2. v * 10**s exactly as hi + lo: Dekker's product, with no FMA
    hi = v * np.take(_POW10, s)
    vh, vl = _halves(v)
    ph, pl = np.take(_POW10_HI, s), np.take(_POW10_LO, s)
    lo = ((vh * ph - hi) + vh * pl + vl * ph) + vl * pl
    # 3. the estimate is right where hi + lo lies in [1e16, 1e17)
    ok = (hi >= 1e16) & (hi < 1e17) & ((hi > 1e16) | (lo >= 0.0))
    fast = cand[ok]
    # 4. N = round(hi + lo): hi is an even integer here, so rint's
    # half-to-even rounding is the one of %.17g
    num = hi[ok].astype(np.int64) + np.rint(lo[ok]).astype(np.int64)
    # 5. the source row: "000" and N's 17 digits, four to a chunk, then
    # ".-  " (chunk 10**4)
    chunks = np.empty((num.size, 6), np.intp)
    chunks[:, 5] = 10**4
    for i in range(4, -1, -1):
        num, chunks[:, i] = np.divmod(num, 10**4)
    src = np.take(_DIGITS, chunks).view(np.uint8)
    # the index of N's last nonzero digit; its first is nonzero, as N >= 1e16
    last = 16 - np.argmax(src[:, 19:2:-1] != ord("0"), axis=1)
    # 6. one gather per row lays out the sign, the point and the digits up
    # to the last nonzero fraction digit
    cols = np.take(_LAYOUT, ((20 - s[ok]) * 2 + neg[fast]) * 17 + last, axis=0)
    return fast, np.take(src, cols + np.arange(0, src.size, _WIDTH)[:, None])


class UsageError(ValueError):
    """An argument outside the domain the program handles; the command line
    reports it as a usage error, with exit status 2."""


class NumericBreakdownError(ArithmeticError):
    """A computed value is not finite: a derivation product or a profile
    quantity overflowed.  The command line reports it with exit status 1."""


@dataclass(frozen=True, eq=False)
class Tensor:
    """Immutable dense tensor of valence ``(r, k)`` on R^dim."""

    dim: int
    valence: tuple[int, int]
    entries: np.ndarray

    def __post_init__(self):
        r, k = self.valence
        if r not in (0, 1) or k < 0:
            raise ValueError(f"unsupported valence {self.valence!r}; need r in {{0,1}}, k >= 0")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        arr = np.array(self.entries, dtype=float)
        if arr.shape != (self.dim,) * (r + k):
            raise ValueError(
                f"entries shape {arr.shape} does not match valence {self.valence} at dim {self.dim}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def zeros(cls, dim: int, valence: tuple[int, int]) -> "Tensor":
        return cls(dim, valence, np.zeros((dim,) * (valence[0] + valence[1])))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, *vectors):
        """Contract every covariant slot, in order, against the given vectors.

        Returns a float for a (0,k) tensor and a length-``dim`` array for a
        (1,k) tensor.
        """
        r, k = self.valence
        if len(vectors) != k:
            raise ValueError(f"expected {k} vectors, got {len(vectors)}")
        res = self.entries
        for v in vectors:
            v = np.asarray(v, dtype=float)
            if v.shape != (self.dim,):
                raise ValueError(f"vector shape {v.shape} does not match dim {self.dim}")
            res = np.tensordot(res, v, axes=([r], [0]))
        return res if r == 1 else float(res)

    __call__ = evaluate

    # -- arithmetic ---------------------------------------------------------

    def _binary(self, other: "Tensor", op) -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        if other.dim != self.dim or other.valence != self.valence:
            raise ValueError("tensor mismatch: need identical dim and valence")
        return Tensor(self.dim, self.valence, op(self.entries, other.entries))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return Tensor(self.dim, self.valence, -self.entries)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return Tensor(self.dim, self.valence, float(scalar) * self.entries)

    __rmul__ = __mul__


def _checked_int(value, minimum: int, what: str) -> int:
    """``value`` as an int; anything that is not an integer of at least
    ``minimum`` (2.5, inf, NaN, a string) is a :class:`UsageError` naming ``what``."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if float(value).is_integer() and value >= minimum:
            return int(value)
    raise UsageError(f"{what} must be an integer >= {minimum}, got {value!r}")


def frobenius_inner(s: Tensor, t: Tensor) -> float:
    """Entrywise inner product; requires identical dim and valence."""
    if s.dim != t.dim or s.valence != t.valence:
        raise ValueError("tensor mismatch: need identical dim and valence")
    return float((s.entries * t.entries).sum())


def max_abs(t: Tensor) -> float:
    """Largest absolute entry (the sup norm on components)."""
    return float(np.max(np.abs(t.entries)))


def pullback(t: Tensor, basis: np.ndarray) -> Tensor:
    """Components of ``t`` in the basis whose vectors are the columns of ``basis``.

    Covariant slots contract against the basis columns; the output slot of a
    (1,k) tensor transforms with the inverse matrix.
    """
    b = np.asarray(basis, dtype=float)
    if b.shape != (t.dim, t.dim):
        raise ValueError("basis must be a square matrix matching the tensor dim")
    r, k = t.valence
    arr = t.entries
    for axis in range(r, r + k):
        arr = np.moveaxis(np.tensordot(arr, b, axes=([axis], [0])), -1, axis)
    if r == 1:
        binv = np.linalg.inv(b)
        arr = np.moveaxis(np.tensordot(arr, binv, axes=([0], [1])), -1, 0)
    return Tensor(t.dim, t.valence, arr)


# -- text serialization -----------------------------------------------------
#
# A record is three lines (plus an optional leading "name:" line used by the
# CLI dump format):
#
#   dim: 4
#   valence: 0 4
#   entries: <d^(r+k) floats, row-major, separated by single spaces>


def to_text(t: Tensor, name: str | None = None) -> str:
    lines = []
    if name is not None:
        lines.append(f"name: {name}")
    lines.append(f"dim: {t.dim}")
    lines.append(f"valence: {t.valence[0]} {t.valence[1]}")
    lines.append(f"entries: {' '.join(_fmt_all(t.entries))}")
    return "\n".join(lines) + "\n"


def _parse_record(lines: list[str]) -> tuple[str | None, Tensor]:
    fields: dict[str, str] = {}
    for line in lines:
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    missing = {"dim", "valence", "entries"} - fields.keys()
    if missing:
        raise ValueError(f"tensor record is missing fields: {sorted(missing)}")
    dim = int(fields["dim"])
    r, k = (int(x) for x in fields["valence"].split())
    raw = fields["entries"].split()
    values = np.array([float(x) for x in raw])
    if values.size != dim ** (r + k):
        raise ValueError("entry count does not match dim and valence")
    arr = values.reshape((dim,) * (r + k))
    return fields.get("name"), Tensor(dim, (r, k), arr)


def from_text(text: str) -> Tensor:
    """Parse a single tensor record produced by :func:`to_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return _parse_record(lines)[1]


def parse_records(text: str) -> list[tuple[str | None, Tensor]]:
    """Parse a multi-record dump (records separated by blank lines)."""
    records = []
    block: list[str] = []
    for line in text.splitlines() + [""]:
        if line.strip():
            block.append(line)
        elif block:
            records.append(_parse_record(block))
            block = []
    return records
