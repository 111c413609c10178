"""Small pass/fail report collected by the verification routines."""

from __future__ import annotations

from typing import Callable

MAX_WITNESSES = 10


class Report:
    def __init__(self, name: str, instances: int = 0, failures: int = 0,
                 witnesses: list[str] | None = None, notes: list[str] | None = None):
        self.name = name
        self.instances = instances
        self.failures = failures
        self.witnesses = [] if witnesses is None else witnesses
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def check(self, ok: bool, witness: str | Callable[[], str] = "") -> bool:
        """One check, one failure if not ok.  A callable witness is called
        only on a failure that is recorded."""
        self.instances += 1
        if not ok:
            self.failures += 1
            if witness and len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(witness() if callable(witness) else witness)
        return ok

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: "Report") -> None:
        self.instances += other.instances
        self.failures += other.failures
        for w in other.witnesses:
            if len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(f"{other.name}: {w}")
        for n in other.notes:
            self.notes.append(f"{other.name}: {n}")

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "pass": self.passed,
            "instances": self.instances,
            "failures": self.failures,
            "witnesses": list(self.witnesses),
            "notes": list(self.notes),
        }
