"""Domain errors.  Every error carries a stable machine-readable code."""

from fractions import Fraction


def printable(value) -> str:
    """str(value) where str() can print it; past str(int)'s digit limit, the
    binary magnitude of the int or Fraction value, ~2^e with
    2^e <= |value| < 2^(e+1), so that no message of a coded error raises."""
    try:
        return str(value)
    except ValueError:
        x = Fraction(value)
        n, d = abs(x.numerator), x.denominator
        e = n.bit_length() - d.bit_length()
        if n << max(-e, 0) < d << max(e, 0):
            e -= 1
        return f"{'-' if x < 0 else ''}~2^{e}"


class LacunaError(Exception):
    code = "lacuna-error"

    def __init__(self, message="", **detail):
        self.detail = detail
        super().__init__(message or self.code)


class EmptyConfigurationError(LacunaError):
    code = "empty-configuration"


class PrecisionTooLowError(LacunaError):
    code = "precision-too-low"

    def __init__(self, required_bits, available_bits):
        self.required_bits = required_bits
        self.available_bits = available_bits
        super().__init__(
            f"precision-too-low: need {required_bits} bits, have {available_bits}"
        )


class NotLacunaryError(LacunaError):
    code = "not-lacunary"


class MalformedSequenceFileError(LacunaError):
    code = "malformed-sequence-file"


class FileError(LacunaError):
    code = "file-error"


class NBelowThresholdError(LacunaError):
    code = "N-below-threshold"


class EpsilonDomainError(LacunaError):
    code = "epsilon-domain"


class DeltaUncertifiableError(LacunaError):
    code = "delta-uncertifiable"

    def __init__(self, index):
        self.index = index
        super().__init__(f"delta-uncertifiable: domination fails at index {index}")


class InfeasibleAtStepError(LacunaError):
    code = "infeasible-at-step"

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"infeasible-at-step {step}")


class IntervalTooShortError(LacunaError):
    code = "interval-below-4-over-aN"


class NestingViolatedError(LacunaError):
    code = "nesting-violated"

    def __init__(self, k):
        self.k = k
        super().__init__(f"nesting-violated at k={k}")


class GapBoundExceededError(LacunaError):
    code = "gap-bound-exceeded"

    def __init__(self, k, gap, bound):
        super().__init__(
            f"gap-bound-exceeded at k={k}: verified gap {float(gap):.6e} "
            f"above 3l ln(N_k)/N_k = {float(bound):.6e}",
            k=k, gap=gap, bound=bound,
        )


class NOutOfRangeError(LacunaError):
    code = "N-out-of-range"


class MeasureUnsupportedError(LacunaError):
    code = "measure-unsupported"


class QuadratureUnderresolvedError(LacunaError):
    code = "quadrature-underresolved"

    def __init__(self, required_points, available_points):
        self.required_points = required_points
        self.available_points = available_points
        super().__init__(
            f"quadrature-underresolved: need {printable(required_points)} points, "
            f"have {available_points}"
        )


class BumpUncertifiedError(LacunaError):
    code = "bump-uncertified"

    def __init__(self, check, value, bound):
        super().__init__(
            f"bump-uncertified: {check} = {value:.3e}, bound {bound:.3e}",
            check=check, value=value, bound=bound,
        )


class FitUnderdeterminedError(LacunaError):
    code = "fit-underdetermined"


class CfPrecisionExhaustedError(LacunaError):
    code = "cf-precision-exhausted"


class MalformedValueError(LacunaError):
    code = "malformed-value"


class RationalBetaError(LacunaError):
    code = "rational-beta"


class InsufficientDepthError(LacunaError):
    code = "insufficient-depth"


class CzPoolExhaustedError(LacunaError):
    code = "cz-pool-exhausted"

    def __init__(self, achieved_terms: int):
        self.achieved_terms = achieved_terms
        super().__init__(f"cz-pool-exhausted after {achieved_terms} terms")


class SequenceTooShortError(LacunaError):
    code = "sequence-too-short"

    def __init__(self, have: int, need: int):
        self.have = have
        self.need = need
        super().__init__(f"sequence-too-short: have {have} terms, need {need}")
