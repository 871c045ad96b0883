"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class CapabilityError(ReproError):
    """An access was requested that the source does not support.

    Raised, for example, when an algorithm performs a sorted access on a
    predicate whose source is random-access only (``cs_i = inf``), or when an
    algorithm that structurally requires a capability (e.g. TA requires both
    access types on every predicate) is run against a middleware that lacks
    it.
    """


class WildGuessError(ReproError):
    """A random access referenced an object never seen from sorted access.

    Middleware algorithms operate under the *no wild guesses* assumption
    (Section 3.2 of the paper, following Fagin et al.): an object can only be
    probed after it has been discovered by some sorted access. The
    middleware raises this error when the assumption is enabled and
    violated.
    """


class DuplicateAccessError(ReproError):
    """The same predicate score was fetched twice for the same object.

    Random accesses are not progressive -- repeating one returns the same
    score and only wastes cost (Section 3.2) -- so, in strict mode, the
    middleware treats a duplicate score retrieval as a bug in the calling
    algorithm.
    """


class ExhaustedSourceError(ReproError):
    """A sorted access was performed on a source whose list is exhausted."""


class UnanswerableQueryError(ReproError):
    """The query cannot be answered under the given access capabilities.

    For instance, when no predicate supports sorted access and wild guesses
    are disallowed, no object can ever be discovered, so no algorithm can
    make progress.
    """


class NotMonotoneError(ReproError):
    """A scoring function violated the monotonicity contract.

    Every scoring function ``F`` must satisfy ``F(x) <= F(y)`` whenever
    ``x_i <= y_i`` for all ``i`` (Section 3.1). Upper-bound reasoning
    (Theorem 1) is unsound otherwise.
    """


class OptimizationError(ReproError):
    """The optimizer was configured inconsistently or failed to search."""


class ContractViolationError(ReproError):
    """A runtime contract of the cost model or bound machinery failed.

    Raised only in contract-checking mode (:mod:`repro.contracts`): a
    last-seen bound ``l_i`` or threshold increased, a delivered score left
    ``[0, 1]``, a proven interval inverted (``lower > upper``), or a
    scoring function failed its monotonicity probe. Each of these breaks
    a soundness precondition of Theorem 1 -- without the check the run
    would not crash, it would return a *wrong top-k answer*.
    """


class BudgetExceededError(ReproError):
    """An access would push the middleware past its configured cost budget.

    Budgets bound worst-case spending against paid or rate-limited
    sources: the middleware refuses the access *before* performing it, so
    no cost beyond the budget is ever incurred. The partial score state
    remains valid; callers can surface partial results or re-plan with a
    cheaper configuration.
    """


class ServiceOverloadError(ReproError):
    """The serving layer refused a new query session: admission control.

    A :class:`~repro.service.QueryServer` bounds the number of sessions
    open at once (``max_in_flight``); submissions beyond the bound are
    rejected up front -- before any parsing state or source access is
    spent on them -- so an overloaded server degrades by shedding load,
    never by corrupting in-flight queries. Clients retry after draining
    results.
    """


class ProtocolError(ReproError):
    """A ``repro serve`` request line the wire protocol cannot serve.

    Raised by :mod:`repro.service.protocol` for undecodable lines
    (non-UTF-8, malformed or too-deep JSON, non-object requests) and for
    unknown ops or bad ``query`` / ``session`` / ``budget`` fields; every
    transport answers it as an error response and keeps serving.
    """


class SourceFaultError(ReproError):
    """Base class of web-source failure conditions (see docs/FAULTS.md).

    Every fault error carries the context needed to reason about it
    programmatically: the predicate whose source failed, the targeted
    object for random accesses (``None`` for sorted accesses), and the
    access kind as a string (``"sorted"`` / ``"random"``).
    """

    def __init__(
        self,
        message: str,
        predicate: int | None = None,
        obj: int | None = None,
        kind: str | None = None,
    ) -> None:
        parts = [message]
        if predicate is not None:
            target = f"predicate {predicate}"
            if obj is not None:
                target += f", object {obj}"
            if kind is not None:
                target += f", {kind} access"
            parts.append(f"({target})")
        super().__init__(" ".join(parts))
        self.predicate = predicate
        self.obj = obj
        self.kind = kind


class TransientSourceError(SourceFaultError):
    """A source attempt failed in a retryable way (flaky connection, 5xx).

    Transient faults model the everyday failure mode of deep-web sources:
    the request can simply be retried, and with enough attempts it is
    expected to succeed. The middleware's :class:`~repro.faults.RetryPolicy`
    absorbs these; algorithms only ever see them wrapped in a
    :class:`RetryExhaustedError` once retries run out.
    """


class SourceTimeoutError(TransientSourceError):
    """A source attempt exceeded its per-access deadline.

    Timeouts are transient (a later attempt may be fast), so they are
    retried exactly like :class:`TransientSourceError`; they are a
    distinct type because real middlewares account waiting time and
    data-transfer failures differently.
    """


class SourceUnavailableError(SourceFaultError):
    """A source is (currently) unreachable and retrying cannot help.

    Raised by a source suffering a permanent outage, or by the middleware
    itself when a predicate's :class:`~repro.faults.CircuitBreaker` is
    open. NC-family engines react by degrading to bound-only scheduling
    on the affected predicate instead of crashing (docs/FAULTS.md).
    """


class RetryExhaustedError(SourceFaultError):
    """All retry attempts of one logical access failed.

    Carries the number of ``attempts`` made and the ``last_error`` that
    ended the final attempt. Each failed attempt was still charged into
    the cost accounting -- retries against web sources cost real money.
    """

    def __init__(
        self,
        message: str,
        predicate: int | None = None,
        obj: int | None = None,
        kind: str | None = None,
        attempts: int = 0,
        last_error: Exception | None = None,
    ) -> None:
        super().__init__(message, predicate=predicate, obj=obj, kind=kind)
        self.attempts = attempts
        self.last_error = last_error
