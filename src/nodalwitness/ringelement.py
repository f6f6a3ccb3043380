"""The base class of base-ring elements.

An element of the DVR model is a `Series` (dvrseries), one of the bivariate
model a `BiFrac` (localring).  Each class holds its model's arithmetic and
rules, refuses an operand of another model itself, and registers under its
`model` string in `MODELS`; the base adds what no model changes.
"""

from __future__ import annotations

from .errors import ModelMismatch, ParseError
from .polyring import power

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

    def valuation(self) -> int | None:
        """DVR order of vanishing; None for the zero element."""
        raise ModelMismatch("valuation is a DVR-model notion")

    def __pow__(self, n: int) -> "RingElement":
        return power(self, n, RingElement.one(self.model))

    def __repr__(self) -> str:
        return f"RingElement({self.model}, {self.to_text()!r})"
