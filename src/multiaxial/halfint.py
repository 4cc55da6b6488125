"""Exact half-integer arithmetic for spin and projection quantum numbers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class HalfInteger:
    """A quantum number j, m, k or q stored exactly as twice its value.

    Storing ``2x`` as an integer keeps selection rules exact: no floating
    point comparisons are ever needed to decide whether ``m' = m + q`` or
    whether a triangle inequality holds.
    """

    twice: int

    @staticmethod
    def of(value) -> "HalfInteger":
        """Coerce an int, float, string ("3/2") or HalfInteger."""
        if isinstance(value, HalfInteger):
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a quantum number")
        if isinstance(value, int):
            return HalfInteger(2 * value)
        twice = Fraction(value) * 2
        if twice.denominator != 1:
            raise ValueError(f"not a half-integer: {value!r}")
        return HalfInteger(int(twice))

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other) -> "HalfInteger":
        return HalfInteger(self.twice + HalfInteger.of(other).twice)

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInteger({self})"


def projections(j) -> list[HalfInteger]:
    """All m from +j down to -j in steps of one (basis row order)."""
    j = HalfInteger.of(j)
    return [HalfInteger(t) for t in range(j.twice, -j.twice - 2, -2)]


def dimension(j) -> int:
    """Hilbert space dimension 2j + 1."""
    return HalfInteger.of(j).twice + 1


def basis_index(j, m) -> int:
    """Row/column index of |j m> with m ordered descending (+j first)."""
    j = HalfInteger.of(j)
    m = HalfInteger.of(m)
    if (j.twice - m.twice) % 2 != 0 or abs(m.twice) > j.twice:
        raise ValueError(f"m={m} incompatible with j={j}")
    return (j.twice - m.twice) // 2
