"""Exception hierarchy for the irtime package.

Everything raised on purpose derives from IrTimeError so callers (and the
command line driver) can catch a single base class.
"""


class IrTimeError(Exception):
    """Base class for all errors raised by this package."""


# IR text and model

class ParseError(IrTimeError):
    """Malformed IR text; carries the 1-based source line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column if column is not None else 0}: {message}"
        super().__init__(message)


class UnsupportedOpcodeError(IrTimeError):
    """A known LLVM construct that is outside the supported subset."""

    def __init__(self, opcode: str, line: int | None = None):
        self.opcode = opcode
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unsupported opcode '{opcode}'{where}")


class UnresolvedReferenceError(IrTimeError):
    """A label, callee, global or register name that does not resolve."""

    def __init__(self, name: str, what: str = "reference", line: int | None = None):
        self.name = name
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unresolved {what} '{name}'{where}")


# interpretation

class InterpreterError(IrTimeError):
    """Base class for runtime failures during interpretation."""


class StepLimitExceeded(InterpreterError):
    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        super().__init__(f"step limit exceeded ({max_steps} executed instructions)")


class OutOfBoundsAccess(InterpreterError):
    def __init__(self, addr: int, nbytes: int = 1):
        self.addr = addr
        self.nbytes = nbytes
        super().__init__(f"out-of-bounds access of {nbytes} byte(s) at 0x{addr:08x}")


class DivisionByZero(InterpreterError):
    def __init__(self, message: str = "integer division by zero"):
        super().__init__(message)


class StackOverflow(InterpreterError):
    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"stack limit of {limit} bytes exhausted")


class HeapExhausted(InterpreterError):
    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"heap limit of {limit} bytes exhausted")


# configuration and file formats

class InvalidConfigError(IrTimeError):
    """A config value outside its legal range."""


class FormatError(IrTimeError):
    """A trace/feature/label/model file that does not match its format."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class DimensionMismatchError(IrTimeError):
    """Feature vector or matrix with the wrong number of columns."""


class MissingLabelError(IrTimeError):
    def __init__(self, sample_id: str):
        self.sample_id = sample_id
        super().__init__(f"no label found for sample '{sample_id}'")


# datasets and metrics

class EmptyDatasetError(IrTimeError):
    def __init__(self, message: str = "dataset has no samples"):
        super().__init__(message)


class EmptyInputError(IrTimeError):
    def __init__(self, message: str = "empty input"):
        super().__init__(message)


class SingularDesignError(IrTimeError):
    """A least-squares fit whose normal equations cannot be solved."""


class NonPositiveActualError(IrTimeError):
    def __init__(self, actual: float):
        self.actual = actual
        super().__init__(f"actual value must be positive, got {actual!r}")


class DegenerateDenominatorError(IrTimeError):
    def __init__(self, actual: float, predicted: float):
        super().__init__(
            f"actual + predicted must be positive, got {actual!r} + {predicted!r}"
        )
