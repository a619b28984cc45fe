"""Exception hierarchy for the repro package.

Every error raised intentionally by the library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.

The serving stack additionally needs a **retryable-vs-terminal** split:
when a request's full search fails, the planning server's degradation
ladder retries on a cheaper rung — unless the failure says no amount of
retrying will help (:class:`TerminalError`), in which case the request
fails outright.  :func:`is_terminal` is the single classification point;
anything not explicitly terminal is treated as transient, because the
ladder exists precisely so that an unexpected optimizer bug degrades a
response instead of failing it.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class WorkflowValidationError(ReproError):
    """A workflow DAG is malformed (cycles, dangling edges, bad vertices)."""


class AnnotationError(ReproError):
    """An annotation is missing, inconsistent, or malformed."""


class ExecutionError(ReproError):
    """The local MapReduce engine failed to execute a job or workflow."""


class CostModelError(ReproError):
    """The What-if engine could not estimate a cost from the given inputs."""


class OptimizationError(ReproError):
    """The optimizer produced or was given an invalid plan."""


class RetryableError(ReproError):
    """A transient failure: a retry — or a degraded fallback — may succeed."""

    retryable = True


class TerminalError(ReproError):
    """A permanent failure: no retry or fallback can produce a valid answer."""

    retryable = False


class DeadlineExceeded(RetryableError):
    """A cooperative time budget expired (see :mod:`repro.core.budget`).

    Raised between candidate evaluations by the search, never mid-rewrite,
    so the plan being optimized is always left in a consistent state.
    ``site`` names the check point that tripped; ``overshoot_s`` is how far
    past the deadline the check ran.
    """

    def __init__(self, site: str = "", overshoot_s: float = 0.0) -> None:
        where = f" at {site}" if site else ""
        super().__init__(f"time budget exhausted{where} ({overshoot_s * 1e3:.1f}ms over)")
        self.site = site
        self.overshoot_s = overshoot_s


def is_terminal(exc: BaseException) -> bool:
    """True when no degradation rung should retry after this failure."""
    return isinstance(exc, TerminalError)
