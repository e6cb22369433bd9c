"""Exception types shared across the toolkit."""


class BpmfError(Exception):
    """Base class for all toolkit errors."""


class DataFormatError(BpmfError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UsageError(BpmfError):
    """Bad command-line input: flags, or the reports handed to compare."""


class DivergenceError(BpmfError):
    """Training produced non-finite values; carries the offending epoch."""

    def __init__(self, message, epoch):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch
