"""Error taxonomy shared across the package.

The CLI maps these onto exit codes (config 1, data 2, training 3), so
raising the right subclass matters more than the message wording.
"""

from contextlib import contextmanager


class ComultiError(Exception):
    """Base class for all package errors."""


class ConfigError(ComultiError):
    """Invalid experiment configuration, CLI flags or config file.  ``key``
    is the config key whose value is at fault, when one is."""

    def __init__(self, message: str, key=None):
        super().__init__(message)
        self.key = key


class DataError(ComultiError):
    """Malformed input files or datasets violating a precondition."""


class TrainingError(ComultiError):
    """A classifier or ensemble could not be fitted."""


@contextmanager
def reading(what: str):
    """Raise what a malformed ``what`` document makes its reader raise as
    one line, ``DataError("<what> document: ...")``; a DataError passes."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{what} document: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError,
            RecursionError, ConfigError) as exc:  # deep JSON recurses
        raise DataError(f"{what} document: {exc}") from None
