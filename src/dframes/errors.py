"""Exception types shared across the package."""


class DFramesError(Exception):
    """Base class for all errors raised by this package."""


class CyclicOrder(DFramesError):
    """The given order pairs contain a cycle through distinct elements."""


class NotALattice(DFramesError):
    """Some pair of elements lacks a greatest lower or least upper bound."""


class NotAFrame(DFramesError):
    """The lattice is not distributive, so it cannot carry frame structure."""


class UnknownElement(DFramesError):
    """A pair or map refers to an element id that is not in the carrier."""


class DomainMismatch(DFramesError):
    """A candidate homomorphism is not a total map between the carriers."""


class CarrierMismatch(DFramesError):
    """Two structures that must share a carrier do not."""


class TrivialMismatch(DFramesError):
    """Exactly one component frame is trivial, which the minimal relations
    cannot support."""


class InvalidDFrame(DFramesError):
    """A candidate quadruple fails one of the d-frame axioms."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report.first_failure))


class NotASubDLocale(DFramesError):
    """A sublocale pair does not induce a valid d-frame quotient."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report.first_failure))


class BrokenInvariant(DFramesError):
    """A computed structure broke a law the theory guarantees; indicates a bug."""


class SizeGuardExceeded(DFramesError):
    """An enumeration would exceed the configured size guard."""


class UnknownSpec(DFramesError):
    """A generator spec string does not name a known construction."""


class ParseError(DFramesError):
    """A document could not be parsed or fails referential checks."""


class CharacterizationMismatch(DFramesError):
    """Two provably equivalent density tests disagreed; indicates a bug."""


class EquivalenceMismatch(DFramesError):
    """Provably equivalent conditions evaluated differently; indicates a bug."""
