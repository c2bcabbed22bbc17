"""Ordinals below omega^3 in Cantor normal form, with the canonical
fundamental sequences used by the limit-stage recursion."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError


@dataclass(frozen=True, order=True)
class OrdinalIdx:
    """omega^2 * c2 + omega * c1 + c0, naturals ordered as (c2, c1, c0)."""

    c2: int = 0
    c1: int = 0
    c0: int = 0

    def __post_init__(self):
        if min(self.c2, self.c1, self.c0) < 0:
            raise ParameterError("coefficients must be nonnegative")

    def is_limit(self) -> bool:
        return self.c0 == 0 and (self.c2, self.c1) != (0, 0)

    def successor(self) -> "OrdinalIdx":
        return OrdinalIdx(self.c2, self.c1, self.c0 + 1)

    def fiber_and_offset(self):
        """Write self = omega * xi + j; returns (xi, j).

        Every ordinal below omega^3 decomposes this way with xi < omega^2.
        """
        return OrdinalIdx(0, self.c2, self.c1), self.c0

    @staticmethod
    def from_fiber(xi: "OrdinalIdx", j: int) -> "OrdinalIdx":
        """omega * xi + j."""
        if xi.c2 > 0:
            raise ParameterError("fiber index must stay below omega^2")
        if j < 0:
            raise ParameterError("offset must be a natural")
        return OrdinalIdx(xi.c1, xi.c0, j)

    def fundamental(self, n: int) -> "OrdinalIdx":
        """n-th element of the canonical increasing sequence with sup self."""
        if not self.is_limit():
            raise ParameterError("fundamental sequences exist for limits only")
        if self.c1 > 0:
            return OrdinalIdx(self.c2, self.c1 - 1, n)
        return OrdinalIdx(self.c2 - 1, n, 0)

    def __str__(self):
        parts = []
        if self.c2:
            parts.append("w^2*%d" % self.c2 if self.c2 > 1 else "w^2")
        if self.c1:
            parts.append("w*%d" % self.c1 if self.c1 > 1 else "w")
        if self.c0 or not parts:
            parts.append(str(self.c0))
        return "+".join(parts)
