"""Exception hierarchy shared across the package.

Each of the three kinds of error carries the ``kind`` that the CLI's
``event=error`` line names and the exit code the CLI returns for it, so
keep the split between spec, data and numeric problems intact.
"""


class CalibILError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(CalibILError):
    """A run-spec file or configuration value is invalid."""
    kind, exit_code = "spec", 2


class DataFileError(CalibILError):
    """A data file on disk could not be used. Carries path context."""
    kind, exit_code = "data", 3

    def __init__(self, path, message):
        self.path = str(path)
        super().__init__(f"{path}: {message}")


class SchemaError(DataFileError):
    """File structure is malformed: bad header, missing or duplicate fields."""


class MetadataError(DataFileError):
    """Sidecar metadata and the main file disagree."""


class NumericError(CalibILError):
    """A numeric computation produced non-finite values or failed to fit."""
    kind, exit_code = "numeric", 4
