"""Exception types raised across the simulator.

Three classes cover what a caller can do about an error:

- :class:`ValidationError`: a bad argument, config value or input file.
  Fix the input; the CLI reports it as a usage error (exit status 2). It is
  also a ``ValueError``.
- :class:`DegenerateDivisor`: an allocation would make a time or energy
  term infinite. A search scores that candidate as infeasible (+inf).
- :class:`SimulationError`: the base of both, raised alone when a search
  finds no answer or the run's bookkeeping breaks. Nothing to retry; the
  CLI reports it (or a ``DegenerateDivisor``) on one line, exit status 1.
"""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SimulationError, ValueError):
    """A value or input file violates a documented domain invariant."""


class DegenerateDivisor(SimulationError):
    """A zero allocation would make a time or energy term infinite.

    Raised instead of returning ``inf`` so optimizers never propagate
    non-finite values silently.
    """
