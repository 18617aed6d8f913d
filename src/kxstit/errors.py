"""Exception types shared across the package."""


class KxstitError(Exception):
    """Base class for all package errors."""


class FormulaSyntaxError(KxstitError):
    """Raised on malformed formula text; carries byte offset and expected tokens."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}" + (f" (expected one of: {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = frozenset(expected)


class UnknownMacro(FormulaSyntaxError):
    def __init__(self, name, offset):
        super().__init__(f"unknown macro '{name}'", offset)
        self.name = name


class CommonKnowledgeDisabled(FormulaSyntaxError):
    def __init__(self, offset):
        super().__init__("common-knowledge operator C used without the extension flag", offset)


class SchemaError(KxstitError):
    """Model/scenario document violates the file schema (missing field, bad reference)."""


class PartitionError(SchemaError):
    """A declared partition has overlapping, empty, or non-covering cells."""


class SuccNotTotal(SchemaError):
    """The successor map does not assign a target to every world."""


class BDTInvariantViolation(KxstitError):
    """A scenario violates one of the tree-frame invariants; names the condition and witnesses."""

    def __init__(self, condition, witnesses, detail=""):
        super().__init__(f"scenario violates {condition}: {detail or witnesses}")
        self.condition = condition
        self.witnesses = list(witnesses)


class UnknownAgent(KxstitError):
    pass


class UnknownWorld(KxstitError):
    pass


class ArityMismatch(KxstitError):
    pass


class DuplicateAgents(KxstitError):
    pass


class InvalidModelInSuite(KxstitError):
    """A model handed to a validity suite does not pass frame validation."""


class InvalidModel(KxstitError):
    pass


class HorizonTooSmall(KxstitError):
    pass


class PartialMap(KxstitError):
    pass


class DepthExceedsWindow(KxstitError):
    """A formula's temporal reach does not fit inside the window at any admissible world."""


class SourceNotIrreflexive(KxstitError):
    pass


class WindowTooSmall(KxstitError):
    pass


class WindowTooLarge(KxstitError):
    """An unravelled window whose ids would list more world names than its limit."""


class UnsatisfiableParams(KxstitError):
    pass


class InvalidBound(KxstitError, ValueError):
    """A cell-count bound n below 1."""


class MatrixTooLarge(KxstitError):
    """An actualization would have more matrix worlds than its limit."""

    def __init__(self, worlds, limit):
        super().__init__(f"the matrix would have {worlds} worlds, over the limit of {limit}")
        self.worlds = worlds
        self.limit = limit
