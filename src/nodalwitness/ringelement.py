"""The base class of base-ring elements.

An element of the DVR model is a `Series` (dvrseries), one of the bivariate
model a `BiFrac` (localring).  Each class holds its model's arithmetic and
rules, refuses an operand of another model itself, and registers under its
`model` string in `MODELS`; the base adds what no model changes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import ModelMismatch, ParseError, PreconditionViolated, RootUnavailable
from .polyring import power

DEFAULT_PREC = 16

MODELS: dict = {}  # model string -> element class


def model_class(model: str) -> type:
    if model not in MODELS:
        raise ParseError(f"unknown ring model {model!r}")
    return MODELS[model]


class RingElement:
    """An element of a base-ring model; see the subclasses."""

    __slots__ = ()
    model: str

    def __init_subclass__(cls):
        MODELS[cls.model] = cls

    # by model string; each subclass's own zero() and from_fraction(c) take none

    @staticmethod
    def zero(model: str) -> "RingElement":
        return model_class(model).zero()

    @staticmethod
    def from_fraction(c, model: str) -> "RingElement":
        return model_class(model).from_fraction(c)

    @staticmethod
    def one(model: str) -> "RingElement":
        return model_class(model).from_fraction(1)

    def _match(self, other: "RingElement") -> None:
        if self.model != other.model:
            raise ModelMismatch(f"cannot mix {self.model} and {other.model} elements")

    def __pow__(self, n: int) -> "RingElement":
        return power(self, n, RingElement.one(self.model))

    def nth_root_unit(self, n: int, prec: int = DEFAULT_PREC) -> Optional["RingElement"]:
        """g with g^n = self, for a unit self and n >= 1; g's residue c0 is
        the rational n-th root of self's, the positive one for even n.

        Raises RootUnavailable when there is no such c0, the price of an
        exact residue field.  The model's `_unit_root` builds g from c0 and
        `power_root`: a series to self's window (or prec), or a bivariate
        element, which is None unless self is exactly an n-th power.
        """
        if n < 1:
            raise PreconditionViolated("root index must be positive")
        if not self.is_unit():
            raise PreconditionViolated("n-th roots are extracted from units only")
        c0 = rational_root(self.residue(), n)
        if c0 is None:
            raise RootUnavailable(f"residue {self.residue()} has no rational {n}-th root")
        return self._unit_root(c0, n, prec)

    def __repr__(self) -> str:
        return f"RingElement({self.model}, {self.to_text()!r})"


def power_root(f: list, n: int, count: int, one) -> list:
    """The graded parts g_0 = one, g_1, ..., g_{count-1} of the n-th root
    of the element whose graded parts are f, with f[0] = one, by Miller's
    recurrence n·k·g_k = sum_{1<=j<=k} ((n+1)·j - n·k)·f_j·g_{k-j}.  It
    holds in any graded Q-algebra, as the degree operator D is a
    derivation, so g^n = f gives n·f·D(g) = g·D(f): the parts may be the
    coefficients of a series or the homogeneous parts of a polynomial."""
    g = [one]
    for k in range(1, count):
        s = sum(
            (((n + 1) * j - n * k) * f[j] * g[k - j] for j in range(1, min(k + 1, len(f)))),
            0 * one,
        )
        g.append(Fraction(1, n * k) * s)
    return g


def _integer_nth_root(m: int, n: int) -> Optional[int]:
    if m < 0:
        if n % 2 == 0:
            return None
        r = _integer_nth_root(-m, n)
        return None if r is None else -r
    if m in (0, 1):
        return m
    if n >= m.bit_length():  # then 2^n > m, and no integer n-th root is m
        return None
    lo, hi = 0, 1
    while hi**n < m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == m else None


def rational_root(c: Fraction, n: int) -> Optional[Fraction]:
    """The rational n-th root of c, the positive one for even n; None when
    there is none."""
    p = _integer_nth_root(c.numerator, n)
    q = _integer_nth_root(c.denominator, n)
    if p is None or q is None:
        return None
    return Fraction(p, q)
