"""Exception types shared across the simulator."""


class ConfigError(Exception):
    """Invalid configuration (bad key, bad value, infeasible run). CLI exit 2."""


class DataFormatError(Exception):
    """Malformed input data; carries the 1-based line number and the file's path when known."""

    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        if line_no is not None:
            message = f"{f'{path}:' if path else 'line '}{line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class TrainingError(RuntimeError):
    """Training or sampling produced a non-finite value."""


class ProtocolError(RuntimeError):
    """Knowledge-cache protocol misuse (e.g. querying an unknown vehicle)."""


class InvariantError(Exception):
    """A runtime self-check failed. CLI exit 3."""
