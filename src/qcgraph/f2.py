"""F2 linear algebra on int bitmask vectors.

The pivot of a row is its lowest set bit.  F2Span keeps a reduced row
echelon basis (each pivot occurs in exactly one row), so membership and
decomposition are single-pass and deterministic.
"""

from __future__ import annotations

from typing import Iterable, Optional


class F2Span:
    """Reduced echelon span with combination tracking over added generators."""

    def __init__(self, gens: Iterable[int] = ()):  # noqa: D401
        self.rows: list[tuple[int, int]] = []  # (vector, generator combo)
        self.ngens = 0
        for g in gens:
            self.add(g)

    def _reduce(self, v: int, combo: int = 0) -> tuple[int, int]:
        for rv, rc in self.rows:
            if v & (rv & -rv):
                v ^= rv
                combo ^= rc
        return v, combo

    def add(self, v: int) -> bool:
        """Add a generator; True if it enlarged the span."""
        combo = 1 << self.ngens
        self.ngens += 1
        v, combo = self._reduce(v, combo)
        if not v:
            return False
        piv = v & -v
        self.rows = [
            (rv ^ v, rc ^ combo) if rv & piv else (rv, rc) for rv, rc in self.rows
        ]
        self.rows.append((v, combo))
        self.rows.sort(key=lambda r: r[0] & -r[0])
        return True

    def solve(self, target: int) -> Optional[int]:
        """Combo bitmask over generators reproducing target, or None."""
        v, combo = self._reduce(target, 0)
        return None if v else combo

    def basis(self) -> list[int]:
        return [rv for rv, _ in self.rows]


def f2_reduce(vectors: Iterable[int]) -> list[int]:
    """Reduced echelon basis of the span, pivots ascending."""
    return F2Span(sorted(vectors)).basis()


def f2_rank(vectors: Iterable[int]) -> int:
    """Rank via an xor basis keyed by lowest set bit (no combo tracking)."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            low = v & -v
            if low in pivots:
                v ^= pivots[low]
            else:
                pivots[low] = v
                break
    return len(pivots)


def f2_nullspace(rows: list[int], nvars: int) -> list[int]:
    """Kernel basis of the linear map with the given constraint rows."""
    reduced = f2_reduce(rows)
    pivot_bits = {(r & -r).bit_length() - 1 for r in reduced}
    out: list[int] = []
    for f in range(nvars):
        if f in pivot_bits:
            continue
        v = 1 << f
        for r in reduced:
            if r >> f & 1:
                v |= 1 << ((r & -r).bit_length() - 1)
        out.append(v)
    return out
