"""Exception hierarchy.

Two top-level families matter to callers: problems with what the user
handed us (:class:`InputError`) and violations of numerical guarantees
the library promises to uphold (:class:`ContractError`). The CLI maps
the first to exit code 2 and the second to exit code 3.
"""


class FdmkitError(Exception):
    """Base class for every error raised by this package."""


class InputError(FdmkitError):
    """Bad data or parameters supplied by the caller."""


class ParameterError(InputError):
    """A scalar argument is outside its documented domain."""


class BandRangeError(InputError):
    """A DFT bin range touches DC or Nyquist, or is out of order."""


class IngestionError(InputError):
    """A file could not be parsed into a signal.

    The message names the first offending row when the problem is
    row-local (ragged row, non-numeric cell, non-uniform time grid).
    """


class ContractError(FdmkitError):
    """A numerical invariant the library guarantees did not hold. It has
    no subclasses and is reserved for runtime contracts (exit code 3)."""
