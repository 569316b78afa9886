"""Exception hierarchy shared by all sdfmig modules."""


class SdfmigError(Exception):
    """Base class for every error raised by this package."""


class InconsistentGraphError(SdfmigError):
    """The balance equations of the graph admit only the zero solution."""

    def __init__(self, message: str, channels: tuple = ()):
        super().__init__(message)
        self.channels = tuple(channels)


class DeadlockError(SdfmigError):
    """Execution reached a state where no actor can ever fire again."""


class StateSpaceBudgetExceededError(SdfmigError):
    """The execution explored more states than the configured budget."""


class InvalidStateBudgetError(SdfmigError):
    """The state budget is not a positive integer."""


class InvalidRateError(SdfmigError):
    """A channel's production or consumption rate is below 1."""


class NegativeExecutionTimeError(SdfmigError):
    """An actor's execution time is negative, so simulated time would run
    backwards."""


class NotHomogeneousError(SdfmigError):
    """Cycle-mean analysis requires all channel rates to be 1."""


class NotStronglyConnectedError(SdfmigError):
    """Cycle-mean analysis requires a strongly connected graph."""


class UnmappedActorError(SdfmigError):
    """An actor sits on no tile of the platform: it has none, or an unknown one."""


class SliceOverflowError(SdfmigError):
    """TDMA slices on a tile exceed the tile's wheel size, or a mapping is
    built with a slice that is not an ``int`` of at least 0 of a placed actor."""


class BufferTooSmallError(SdfmigError):
    """A channel buffer cannot even hold the channel's initial tokens."""


class SameTileError(SdfmigError):
    """A remote binding joins endpoints on one tile, or a local one endpoints
    that are not."""


class InvalidFieldError(SdfmigError):
    """A tile or connection is built with an id that is not a ``str``, a
    connection with a source or destination tile that is not one, a
    mapping with an actor, tile or channel id that is not one, a tile with a
    kind that is not a ``TileKind``, or a tile's wheel or a connection's
    latency is not an ``int`` of at least 0.
    ``rule`` is what ``field`` breaks (``"must be at least 0, got -1"``)."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field = field
        self.rule = rule


class InvalidBindingError(InvalidFieldError):
    """A channel binding's kind is not a ``BindingKind``, it sets a count or
    time that is not an ``int`` or is below its minimum, it lacks the
    connection its kind needs, or it sets a field its kind never reads."""


class DuplicateIdError(SdfmigError):
    """Two actors, or two channels, of one graph share an id, or two tiles,
    or two connections, of one platform."""


class UnknownActorError(SdfmigError):
    """An operation referenced an actor id that is not in the graph."""


class MalformedGraphError(SdfmigError):
    """A graph holds an id or endpoint that is not a ``str``, initial tokens
    or a token size that is not an integer of at least 0, an execution time
    or rate that is not an integer (a ``bool`` is not), an actor kind that
    is not an ``ActorKind``, or a reference actor that is not in the graph."""


class UnknownConnectionError(SdfmigError):
    """An operation referenced a connection id that is not in the platform."""


class UnknownChannelError(SdfmigError):
    """An operation referenced a channel id that is not in the graph."""


class InvalidBandwidthError(SdfmigError):
    """A connection is built with a bandwidth that is not a positive ``int``
    or ``Fraction``."""


class InvalidClockError(SdfmigError):
    """A clock frequency is not positive."""


class UnknownReportFormatError(SdfmigError):
    """A report was requested in a format other than text or CSV."""


class AlreadyHardwareError(SdfmigError):
    """Migration requested for an actor that is not a software actor."""


class InvalidMigrationSpecError(InvalidFieldError):
    """A migration spec is built with a parameter of the wrong type (a
    speedup that is not an ``int`` or a ``Fraction``, a count that is not
    an ``int``, or a ``bool``) or out of range: speedup not positive, a
    negative prefetch time or hardware buffer, or a chain alpha below 1."""


class ScenarioParseError(SdfmigError):
    """Scenario file is not well-formed or uses unknown elements."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column if column is not None else '?'})"
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioValidationError(SdfmigError):
    """A scenario's contents violate model invariants: a scenario file that
    parsed, or a scenario that save would write but load would refuse."""

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)
