"""Structured diagnostics shared by the library and the CLI.

Every verification routine returns a Report: an ordered list of CheckResult
entries, each tagged with a stable claim slug so a failing run can be traced
back to the property it exercised.  Reports serialize deterministically
(sorted keys, no timestamps) so seeded runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "CheckResult",
    "Report",
    "TruncationWarning",
    "IllConditionedError",
    "DecompositionError",
]


class TruncationWarning(UserWarning):
    """Coefficients near the truncation edge are too large for the requested
    accuracy; the result is only approximate and carries a computable bound."""


class IllConditionedError(RuntimeError):
    """Singular values fell inside the forbidden gap band, or the truncation
    is too small for the null-count gap criterion to be meaningful."""


class DecompositionError(RuntimeError):
    """The residual of a kernel/parametrix splitting exceeded tolerance."""


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and complex numbers into JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.complexfloating, complex)):
        value = complex(value)
        return {"re": value.real, "im": value.imag}
    return value


@dataclass
class CheckResult:
    """Outcome of one named check."""

    check: str
    claim: str
    params: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    passed: bool = True

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "claim": self.claim,
            "params": _jsonable(self.params),
            "observed": _jsonable(self.observed),
            "expected": _jsonable(self.expected),
            "pass": bool(self.passed),
        }


@dataclass
class Report:
    """Ordered collection of check results."""

    title: str
    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def __getitem__(self, check: str) -> CheckResult:
        for r in self.results:
            if r.check == check:
                return r
        raise KeyError(check)

    def as_dict(self) -> dict:
        return {
            "report": self.title,
            "pass": self.passed,
            "checks": [r.as_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)
