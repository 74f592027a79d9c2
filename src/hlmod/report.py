"""Structured pass/fail records for every theorem-style check.

A report never collapses to a bare boolean: failed checks carry a
machine-readable witness (offending vectors, minor indices, dimensions),
and input problems are kept distinct from genuine check failures so that
a malformed module can never masquerade as a disproved theorem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INPUT_ERROR = "input-error"


@dataclass
class SubCheck:
    name: str
    passed: bool
    witness: dict | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    check: str
    tag: str
    verdict: str = PASS
    subchecks: list[SubCheck] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def add(self, name: str, passed: bool, witness: dict | None = None) -> SubCheck:
        sub = SubCheck(name, passed, witness)
        self.subchecks.append(sub)
        if not passed and self.verdict == PASS:
            self.verdict = FAIL
        return sub

    def mark_input_error(self, message: str) -> "CheckReport":
        self.verdict = INPUT_ERROR
        self.data["error"] = message
        return self

    def failures(self) -> list[SubCheck]:
        return [s for s in self.subchecks if not s.passed]

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "tag": self.tag,
            "verdict": self.verdict,
            "subchecks": [s.to_dict() for s in self.subchecks],
            "data": self.data,
        }

    def to_json(self) -> str:
        # canonical encoding: sorted keys, no whitespace, so identical
        # inputs and seeds give byte-identical reports
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def summary_line(self) -> str:
        n_fail = len(self.failures())
        status = self.verdict.upper()
        detail = "" if not n_fail else f" ({n_fail} failing subcheck{'s' if n_fail > 1 else ''})"
        return f"[{status}] {self.check} ({self.tag}){detail}"
