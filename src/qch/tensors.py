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
    "Tensor",
    "frobenius_inner",
    "max_abs",
    "pullback",
    "to_text",
    "from_text",
    "parse_records",
]

_FLOAT_FMT = ".17g"  # round-trips 64-bit floats exactly


class UsageError(ValueError):
    """An argument outside the domain the program handles; the command line
    reports it as a usage error, with exit status 2."""


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
    flat = " ".join(format(x, _FLOAT_FMT) for x in t.entries.ravel(order="C"))
    lines.append(f"entries: {flat}")
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
