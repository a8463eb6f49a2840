"""Exception types raised by the library.

Every error derives from :class:`RenyiError` so callers (and the CLI) can
catch one base class.  ``offending_field`` is set when the error points at a
specific field of a parsed input file.
"""


class RenyiError(Exception):
    def __init__(self, message: str, offending_field: str = ""):
        super().__init__(message)
        self.offending_field = offending_field


# linear algebra
class NonHermitianInput(RenyiError):
    pass


class ConvergenceFailure(RenyiError):
    pass


class NotPsd(RenyiError):
    pass


class NotPd(RenyiError):
    pass


class SingularPower(RenyiError):
    pass


class DimensionMismatch(RenyiError):
    pass


class SideOverflow(RenyiError):
    """A value from finite operands, a check's side or an eigenvalue, overflows the float range."""


# classical entropies
class DomainError(RenyiError):
    pass


class BetaOne(RenyiError):
    pass


class BetaOutOfRange(RenyiError):
    pass


class InvalidDistribution(RenyiError):
    pass


# quantum entropies
class AlphaOne(RenyiError):
    pass


class AlphaOutOfRange(RenyiError):
    pass


class InvalidDensityMatrix(RenyiError):
    pass


# divergence / optimization
class SigmaSingular(RenyiError):
    pass


class TraceNonpositive(RenyiError):
    pass


class NotBipartite(RenyiError):
    pass


class MarginalSingular(RenyiError):
    pass


# harness
class BadDim(RenyiError):
    pass


class BadRank(RenyiError):
    pass


class BadZeros(RenyiError):
    pass


class BadCap(RenyiError):
    pass


class BadTrials(RenyiError):
    pass


class UnknownSuite(RenyiError):
    pass


class SuiteFailures(RenyiError):
    pass


# file I/O
class FileFormatError(RenyiError):
    pass


class IoError(RenyiError):
    pass
