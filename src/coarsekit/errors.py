"""Exception types, and the base of check reports, shared across the package."""

from dataclasses import asdict


class Report:
    """The base of a check report, a dataclass with a ``passed`` property."""

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


class CoarseKitError(Exception):
    """Base class for all package errors.  ``witness`` holds the offending data
    where the raise site has it, else None: a metric triple (a, b, c) with
    d(a, c) > d(a, b) + d(b, c), the pair a map collapses or stretches, a chain
    class past its cap, or the point an injective choice cannot place."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MalformedSpec(CoarseKitError):
    """A space / window / operator specification is structurally invalid."""


class MetricViolation(MalformedSpec):
    """A custom distance table fails the metric axioms."""


class UnknownPoint(CoarseKitError):
    """A point id is not valid in the given space."""


class EnumerationOverflow(CoarseKitError):
    """A ball or neighborhood enumeration exceeded the configured cap."""


class NoSegments(CoarseKitError):
    """Within the search budget, no chain class exceeds the current longest segment."""


class NotTreelike(CoarseKitError):
    """Operation requires a tree or free-group space."""


class RankTooSmall(CoarseKitError):
    """Free-group paradoxical rule needs rank at least two."""


class NotInjective(CoarseKitError):
    """A map required to be injective collapses two points."""


class ExpansionUnbounded(CoarseKitError):
    """A map moved a bounded pair farther than the declared expansion bound."""


class WindowMismatch(CoarseKitError):
    """Binary operator arithmetic on operators over different windows."""


class IntegerOverflow(CoarseKitError):
    """An exact operator entry, or an exact sum or product, would leave int64."""


class PropagationTooLarge(CoarseKitError):
    """Operator propagation exceeds the scale required by the construction."""


class ClassTooLarge(CoarseKitError):
    """A chain class exceeds the configured block-size cap."""


class SegmentOutsideWindow(CoarseKitError):
    """A segment family references points outside the given window."""


class NoProbe(CoarseKitError):
    """Every segment basepoint is within the requested propagation of the endpoint set."""


class LevelsTooSmall(CoarseKitError):
    """The level count is smaller than max |f| in the shift-tower construction."""


class DomainMismatch(CoarseKitError):
    """Composition of maps whose ranges/domains do not line up."""


class Infeasible(CoarseKitError):
    """A requested certificate provably cannot exist; carries a witness."""


class CapExceeded(CoarseKitError):
    """Exhaustive mode invoked on a window larger than its size cap."""
