"""Exception hierarchy shared by all modules.

The command line exits with the code that its one table, ``cli.EXIT_CODES``,
gives each of them: InputError 2, NonConvergenceError 3, ResourceLimitError 4.
"""


class OutgrowthError(Exception):
    """Base class for all library errors."""


class InputError(OutgrowthError):
    """Malformed or inconsistent user input (bad index, schema violation, ...)."""


class NonConvergenceError(OutgrowthError):
    """A numeric or search procedure hit its iteration/budget cap.

    ``best`` carries the best bound or partial result obtained so far.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ResourceLimitError(OutgrowthError):
    """A hard resource guard (e.g. the word-length guard) was exceeded.

    ``partial`` carries whatever was computed before the guard tripped.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
