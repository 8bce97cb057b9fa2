"""Signature data for the isotropic cone in R^{p,q}.

The cone lives in R^{p+q} with the quadratic form
Q(x) = x_1^2 + ... + x_p^2 - x_{p+1}^2 - ... - x_{p+q}^2, and every
parameterized computation in this package is driven by the pair (p, q)
together with the derived quantities n = p+q and m = (p+q-4)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


@dataclass(frozen=True)
class ConeSpec:
    """The pair (p, q) with derived quantities.

    p, q >= 1 always; kernel and radial computations additionally require
    p+q even and >= 4 (there is no minimal representation of the conformal
    group when p+q is odd, so those code paths refuse odd totals).
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError(f"need p, q >= 1, got ({self.p}, {self.q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def m(self):
        """(p+q-4)/2, an int when p+q is even, else a Fraction."""
        m2 = self.p + self.q - 4
        return m2 // 2 if m2 % 2 == 0 else Fraction(m2, 2)

    def epsilon(self, a: int) -> int:
        """Signature of the a-th coordinate, 1-based: +1 for a <= p."""
        if not 1 <= a <= self.n:
            raise IndexError(f"coordinate index {a} out of range 1..{self.n}")
        return 1 if a <= self.p else -1

    @cached_property
    def signature(self) -> tuple:
        return tuple(self.epsilon(a) for a in range(1, self.n + 1))

    @cached_property
    def variables(self) -> tuple:
        """Canonical variable names x1..x{p+q}, x_{p+q} sorted last."""
        return tuple(f"x{a}" for a in range(1, self.n + 1))

    def require_even(self) -> None:
        """Reject odd p+q, where the inversion kernel is not defined."""
        if self.n % 2 != 0:
            raise ValueError(
                f"p+q = {self.n} is odd: no minimal representation exists for "
                "the conformal group of R^{p,q} with p+q odd, so the kernel "
                "and radial calculus are undefined"
            )

    def require_kernel_domain(self) -> None:
        self.require_even()
        if self.n < 4:
            raise ValueError(f"kernel calculus needs p+q >= 4, got {self.n}")
