"""Unit tests for bounded deterministic retry (:mod:`repro.fault.retry`)."""

import pytest

from repro.errors import RetryExhaustedError, ServingError, TransientIOError
from repro.fault.retry import (
    DEFAULT_BACKOFF_BASE_MS,
    DEFAULT_RETRY_LIMIT,
    backoff_delay_ms,
    call_with_retries,
)


class Contended(Exception):
    """A second retryable failure type, for multi-type ``retry_on``."""


class Flaky:
    """Fails ``failures`` times, then returns ``value``."""

    def __init__(self, failures, exc=TransientIOError, value="ok"):
        self.failures = failures
        self.exc = exc
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"failure {self.calls}")
        return self.value


class TestCallWithRetries:
    def test_immediate_success_uses_no_retries(self):
        result, used = call_with_retries(Flaky(0))
        assert (result, used) == ("ok", 0)

    def test_retries_until_success(self):
        fn = Flaky(3)
        result, used = call_with_retries(fn, limit=4)
        assert (result, used) == ("ok", 3)
        assert fn.calls == 4

    def test_exhaustion_wraps_last_failure(self):
        fn = Flaky(10)
        with pytest.raises(RetryExhaustedError) as info:
            call_with_retries(fn, limit=2)
        assert isinstance(info.value.__cause__, TransientIOError)
        assert fn.calls == 3  # first attempt + 2 retries

    def test_exhaustion_is_a_serving_error(self):
        assert issubclass(RetryExhaustedError, ServingError)

    def test_limit_zero_fails_on_first_fault(self):
        with pytest.raises(RetryExhaustedError):
            call_with_retries(Flaky(1), limit=0)

    def test_non_retryable_exception_propagates(self):
        with pytest.raises(ValueError):
            call_with_retries(Flaky(1, exc=ValueError), limit=4)

    def test_retry_on_extends_the_net(self):
        fn = Flaky(2, exc=Contended)
        result, used = call_with_retries(
            fn, limit=4, retry_on=(TransientIOError, Contended)
        )
        assert (result, used) == ("ok", 2)

    def test_on_retry_sees_every_attempt(self):
        seen = []
        call_with_retries(
            Flaky(3), limit=4, on_retry=lambda i, exc: seen.append(i)
        )
        assert seen == [0, 1, 2]

    def test_negative_limit_rejected(self):
        with pytest.raises(RetryExhaustedError):
            call_with_retries(Flaky(0), limit=-1)


class TestBackoff:
    def test_exponential_schedule(self):
        assert [backoff_delay_ms(i, 1.0) for i in range(4)] == [
            1.0,
            2.0,
            4.0,
            8.0,
        ]

    def test_defaults(self):
        assert DEFAULT_RETRY_LIMIT == 4
        assert DEFAULT_BACKOFF_BASE_MS == 1.0
        assert backoff_delay_ms(0) == DEFAULT_BACKOFF_BASE_MS
