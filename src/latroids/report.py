"""Pass/fail reports returned by validators and consistency checks.

Validators scan for witnesses, not for booleans: a check is written as an
iterable (usually a generator) that yields a description of each violation
in scan order, and ``Check.from_witnesses`` takes the first one.  The scan
stops there, an empty scan passes with an empty detail, and the reported
witness is always the first in the documented order.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    @classmethod
    def from_witnesses(cls, name: str, witnesses) -> "Check":
        """Fail with the first witness ``witnesses`` yields; pass if none."""
        witness = next(iter(witnesses), None)
        return cls(name, witness is None, witness or "")

    @classmethod
    def from_report(cls, name: str, report: Report) -> Check:
        """Pass or fail as ``report`` does, with its summary on a failure."""
        return cls(name, report.ok, "" if report.ok else report.summary())


@dataclass(frozen=True)
class Report:
    ok: bool
    checks: tuple[Check, ...]

    @classmethod
    def from_checks(cls, checks) -> "Report":
        checks = tuple(checks)
        return cls(all(c.ok for c in checks), checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def first_failure(self) -> Check | None:
        bad = self.failures()
        return bad[0] if bad else None

    def summary(self) -> str:
        if self.ok:
            return "valid"
        bad = self.first_failure()
        return f"{bad.name}: {bad.detail}" if bad else "invalid"

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }
