"""Exception types shared across the package."""

from __future__ import annotations

from .values import render


class NoetError(Exception):
    """Base class for every error this package raises deliberately."""


class MalformedInput(NoetError):
    """Bad user-supplied structure: files, expressions, parameters."""


class LimitExceeded(NoetError):
    """A configured resource bound (space size, fuel) was hit."""


class Refuted(NoetError):
    """A checked property fails, with a witness: a verdict, not a crash.
    Construction-time loop failures and cycles met by limit or height."""


# -- spaces ------------------------------------------------------------

class ValueOutsideSpace(NoetError):
    def __init__(self, value, space):
        self.value = value
        self.space = space
        try:
            shown = render(value)
        except TypeError:  # no value, or one that holds a non-value
            shown = repr(value)
        super().__init__(f"value {shown} is not a member of {space.describe()}")


class SpaceTooLarge(LimitExceeded):
    def __init__(self, size, cap):
        # size is the exact count, or None (or inf) when all that is known
        # is that there are more than cap
        self.size = size if isinstance(size, int) else None
        self.cap = cap
        needs = f"more than {cap}" if self.size is None else self.size
        super().__init__(f"space needs {needs} elements, cap is {cap}")


class SpaceMismatch(NoetError):
    pass


# -- relations ---------------------------------------------------------

class NotNoetherian(Refuted):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__("relation admits an infinite descending chain"
                         + (f": {witness}" if witness is not None else ""))


# -- catalog -----------------------------------------------------------

class MalformedExpr(MalformedInput):
    pass


class UnknownNamedFunction(MalformedInput):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no induced function named {name!r}")


# -- loops -------------------------------------------------------------

class EmptySpace(Refuted):
    pass


class InitEscapesSpace(Refuted):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"initialization produces a state outside the space: {witness!r}")


class BodyNotSubsetOfOrder(Refuted):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"body pair not contained in the order: {witness!r}")


class DomainMismatch(Refuted):
    def __init__(self, witness, side):
        self.witness = witness
        self.side = side
        super().__init__(f"body and order domains differ at {witness!r} ({side})")


class OrderNotNoetherian(Refuted):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"order is not Noetherian: {witness}")


class FuelExhausted(LimitExceeded):
    def __init__(self, fuel, partial=None):
        self.fuel = fuel
        self.partial = partial
        super().__init__(f"fuel {fuel} exhausted before a terminal state was reached")


class InputOutsideSpace(NoetError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"input {value!r} is not served by the loop's initialization")


# -- examples ----------------------------------------------------------

class ParameterOutOfRange(MalformedInput):
    pass


class NonTotalFunction(NoetError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"variant function undefined at {witness!r}")


class NegativeVariantValue(NoetError):
    def __init__(self, witness, value):
        self.witness = witness
        self.value = value
        super().__init__(f"variant value {value} at {witness!r} is negative")


class UnknownOracle(MalformedInput):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no postcondition oracle named {name!r}")
