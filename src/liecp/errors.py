"""Exception types shared across the library."""

from __future__ import annotations


class LiecpError(Exception):
    """Base class for all library errors."""


class ExactDivisionError(LiecpError):
    """Polynomial division that was expected to be exact left a remainder."""


class JacobiViolation(LiecpError):
    def __init__(self, triple, defect, labels=None):
        self.triple = triple
        self.defect = defect
        names = triple if labels is None else tuple(labels[t] for t in triple)
        super().__init__(f"Jacobi identity fails on {names}: defect {defect}")


class DuplicatePair(LiecpError):
    pass


class IndexOutOfRange(LiecpError):
    pass


class ParseError(LiecpError):
    def __init__(self, message, location=None):
        self.location = location
        where = f" at {location}" if location else ""
        super().__init__(f"{message}{where}")


class NotAnIdeal(LiecpError):
    pass


class NotASubalgebra(LiecpError):
    pass


class NotARepresentation(LiecpError):
    pass


class NotADerivation(LiecpError):
    pass


class NotCentral(LiecpError):
    pass


class ZeroVector(LiecpError):
    pass


class NotCommutative(LiecpError):
    pass


class NotCommutativeIdeal(LiecpError):
    pass


class NotLeftSymmetric(LiecpError):
    pass


class NoUnit(LiecpError):
    pass


class AmbientMismatch(LiecpError):
    pass


class SamplingExhausted(LiecpError):
    pass


class InconsistentConditions(LiecpError):
    """Provably equivalent conditions disagreed under certified ranks: an elimination bug."""


class ChainGap(LiecpError):
    pass


class NotCodimOne(LiecpError):
    pass


class WrongCodimension(LiecpError):
    pass


class NotRegular(LiecpError):
    pass


class FunctionalNotVanishing(LiecpError):
    pass


class NotContained(LiecpError):
    pass


class InvalidComposition(LiecpError):
    pass


class UnsupportedType(LiecpError):
    pass


class UnknownEntry(LiecpError):
    pass


class MissingParameter(LiecpError):
    pass
