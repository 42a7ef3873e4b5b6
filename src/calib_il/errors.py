"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so keep the split between
spec problems, data problems and numeric problems intact.
"""


class CalibILError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(CalibILError):
    """A run-spec file or configuration value is invalid."""


class DataFileError(CalibILError):
    """A data file on disk could not be used. Carries path context."""

    def __init__(self, path, message):
        self.path = str(path)
        super().__init__(f"{path}: {message}")


class SchemaError(DataFileError):
    """File structure is malformed: bad header, missing or duplicate fields."""


class MetadataError(DataFileError):
    """Sidecar metadata and the main file disagree."""


class NumericError(CalibILError):
    """A numeric computation produced non-finite values or failed to fit."""
