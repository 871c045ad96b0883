"""Exception-hierarchy contract: ancestry, catchability, fault context."""

import pytest

from repro.exceptions import (
    ReproError,
    RetryExhaustedError,
    SourceFaultError,
    SourceTimeoutError,
    SourceUnavailableError,
    TransientSourceError,
)
from tests.conftest import library_classes

#: Every exception class under ``repro``, found by walking the package.
LIBRARY_ERRORS = library_classes(BaseException)

FAULT_ERRORS = [
    SourceFaultError,
    TransientSourceError,
    SourceTimeoutError,
    SourceUnavailableError,
    RetryExhaustedError,
]


class TestHierarchy:
    def test_walk_finds_errors_beyond_the_exceptions_module(self):
        names = {cls.__name__ for cls in LIBRARY_ERRORS}
        assert {"ReproError", "BudgetExceededError", "QueryError"} <= names

    @pytest.mark.parametrize("exc_type", LIBRARY_ERRORS)
    def test_every_library_error_derives_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)
        assert issubclass(exc_type, Exception)

    @pytest.mark.parametrize("exc_type", FAULT_ERRORS)
    def test_fault_family_derives_from_source_fault_error(self, exc_type):
        assert issubclass(exc_type, SourceFaultError)

    def test_timeout_is_transient(self):
        # Timeouts must be caught by retry loops handling transient faults.
        assert issubclass(SourceTimeoutError, TransientSourceError)

    def test_permanent_outage_is_not_transient(self):
        assert not issubclass(SourceUnavailableError, TransientSourceError)

    def test_one_except_clause_catches_everything(self):
        caught = []
        for exc_type in LIBRARY_ERRORS:
            try:
                if issubclass(exc_type, SourceFaultError):
                    raise exc_type("boom", predicate=0)
                raise exc_type("boom")
            except ReproError as exc:
                caught.append(exc)
        assert len(caught) == len(LIBRARY_ERRORS)


class TestFaultContext:
    def test_message_carries_predicate_object_and_kind(self):
        exc = TransientSourceError(
            "connection reset", predicate=2, obj=17, kind="random"
        )
        text = str(exc)
        assert "connection reset" in text
        assert "predicate 2" in text
        assert "object 17" in text
        assert "random access" in text
        assert exc.predicate == 2 and exc.obj == 17 and exc.kind == "random"

    def test_sorted_access_context_has_no_object(self):
        exc = SourceTimeoutError("deadline exceeded", predicate=1, kind="sorted")
        assert exc.obj is None
        assert "object" not in str(exc)
        assert "predicate 1" in str(exc)

    def test_context_is_optional(self):
        exc = SourceUnavailableError("all replicas down")
        assert str(exc) == "all replicas down"
        assert exc.predicate is None and exc.obj is None and exc.kind is None

    def test_retry_exhausted_carries_attempts_and_cause(self):
        cause = TransientSourceError("503", predicate=0, kind="sorted")
        exc = RetryExhaustedError(
            "all 5 attempt(s) failed",
            predicate=0,
            kind="sorted",
            attempts=5,
            last_error=cause,
        )
        assert exc.attempts == 5
        assert exc.last_error is cause
        assert "predicate 0" in str(exc)

    def test_fault_errors_raised_by_middleware_carry_access_context(self):
        # End-to-end: the error an algorithm sees names the failed access.
        from repro.data.generators import uniform
        from repro.faults import FaultProfile, RetryPolicy, chaos_middleware
        from repro.sources.cost import CostModel

        data = uniform(30, 2, seed=1)
        mw = chaos_middleware(
            data,
            CostModel.uniform(2),
            FaultProfile.transient(1.0),  # every attempt fails
            retry_policy=RetryPolicy(max_attempts=2),
        )
        with pytest.raises(RetryExhaustedError) as info:
            mw.sorted_access(0)
        assert info.value.predicate == 0
        assert info.value.kind == "sorted"
        assert info.value.attempts == 2
        assert isinstance(info.value.last_error, TransientSourceError)
