"""Typed failure modes shared across the package.

Every error that a caller is expected to handle (bad configuration, bad
arguments, violated preconditions) has its own class here.  Errors tagged
"convention bug" in docstrings signal an internal inconsistency: they should
never fire on valid data and are deliberately loud.
"""

__all__ = [
    "ParaheckeError",
    "NonDivisible",
    "OddHalfPower",
    "NonCrystallographic",
    "InfiniteFiniteWeyl",
    "ParameterBraidMismatch",
    "NotAntidominant",
    "SubgroupInvalid",
    "NonUnitDiagonal",
    "UnsupportedParameters",
    "InfiniteFacetGroup",
    "NotBiinvariant",
    "CentralityFailure",
    "SolveInconsistent",
    "NegativeCoefficient",
    "NotCentral",
    "ValidationError",
    "ExprSyntaxError",
]


class ParaheckeError(Exception):
    """Base class for all package errors."""


class NonDivisible(ParaheckeError):
    """Exact division left a nonzero remainder."""


class OddHalfPower(ParaheckeError):
    """Evaluation at q requested but the v-support has odd exponents."""


class NonCrystallographic(ParaheckeError):
    """Pairing matrix fails the crystallographic conditions."""


class InfiniteFiniteWeyl(ParaheckeError):
    """The configured finite Weyl group did not close below the bound."""


class ParameterBraidMismatch(ParaheckeError):
    """Parameters differ on generators tied by an odd braid relation."""


class NotAntidominant(ParaheckeError):
    """An antidominant lattice element was required."""


class SubgroupInvalid(ParaheckeError):
    """The supplied torsion elements do not define a subgroup of the torsion."""


class NonUnitDiagonal(ParaheckeError):
    """Triangular elimination met a non-monomial diagonal (convention bug)."""


class UnsupportedParameters(ParaheckeError):
    """Operation restricted to equal-parameter, simply-laced data."""


class InfiniteFacetGroup(ParaheckeError):
    """The generator subset does not span a finite parabolic subgroup."""


class NotBiinvariant(ParaheckeError):
    """Operand is not bi-invariant under the facet subgroup."""


class CentralityFailure(ParaheckeError):
    """A would-be central element failed a commutation check (convention bug)."""


class SolveInconsistent(ParaheckeError):
    """Triangular solve left a nonzero residual (convention bug)."""


class NegativeCoefficient(ParaheckeError):
    """A Satake entry failed positivity; carries the serialized counterexample."""


class NotCentral(ParaheckeError):
    """Argument is not central in the facet algebra."""


class ValidationError(ParaheckeError):
    """Configuration failed validation; chained from the underlying error."""


class ExprSyntaxError(ParaheckeError):
    """Element/command expression could not be parsed."""
