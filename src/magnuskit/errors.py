"""Shared exception types."""


class BeyondCapError(RuntimeError):
    """A query needed a length not certified under the one threshold,
    RunConfig.travel_exact_max.  Raise it with --config on the command line
    or config.using in the library if the exact value matters."""


class InvariantViolation(AssertionError):
    """A machine-checked identity the library guarantees failed to hold."""
