"""Exception hierarchy for curvlab.

Every structural precondition failure maps onto one of these classes so
callers (and the CLI exit-code contract) can route on exception type
rather than message text.
"""


class CurvlabError(Exception):
    """Base class for all curvlab errors."""


class InputError(CurvlabError):
    """Malformed input data (bad edges, bad parameters, bad formats)."""


class PreconditionError(CurvlabError):
    """A structural precondition of an operation is not met."""


class VerificationError(CurvlabError):
    """A recomputed value disagrees with its expected/golden value."""


# -- graph construction ------------------------------------------------------

class SelfLoop(InputError):
    pass


class DuplicateEdge(InputError):
    pass


class VertexOutOfRange(InputError):
    pass


class BadParam(InputError):
    """Family generator parameter outside its validity range."""


class FormatError(InputError):
    """Undecodable graph6 / JSON input."""


# -- metric / structural preconditions --------------------------------------

class Disconnected(PreconditionError):
    pass


class DisconnectedSubset(PreconditionError):
    pass


class EmptySphere(PreconditionError):
    pass


class NotAnEdge(PreconditionError):
    pass


class WrongDistance(PreconditionError):
    pass


class NotRegular(PreconditionError):
    pass


class SamePair(PreconditionError):
    pass


class IsolatedVertex(PreconditionError):
    pass


class NoEdges(PreconditionError):
    """A regular graph of degree 0, which every regular-graph verdict refuses."""


class NotAPole(PreconditionError):
    pass


class PreconditionUnmet(PreconditionError):
    pass


# -- transport ---------------------------------------------------------------

class BadIdleness(InputError):
    """Idleness parameter not a rational in [0, 1]."""


class BadMeasure(InputError):
    """Masses of a measure or transport plan that are not positive or do not
    add up to the totals it must have."""


class NotPerfectMatching(PreconditionError):
    pass


class NotFullLength(PreconditionError):
    pass


class NotBMSharp(PreconditionError):
    """A transport construction that requires Bonnet-Myers sharpness failed."""


class MuGraphNotCP(PreconditionError):
    pass


class NoAntipole(PreconditionError):
    pass


class UnbalancedTransport(VerificationError):
    """Supply and demand of a transportation problem have different totals."""


class SolverFailed(VerificationError):
    """An exact transport solver gave no answer, or one that its own dual
    certificate refutes."""


# -- internal identities --------------------------------------------------------

class IdentityViolated(VerificationError):
    """A graph identity that holds by construction failed on computed data."""


class FormCheckFailed(VerificationError):
    """A Bakry-Emery form or curvature value failed its own consistency check."""
