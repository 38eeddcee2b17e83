"""Validation reports: named laws with concrete witness tuples."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple

    def as_dict(self):
        return {"law": self.law, "witness": list(self.witness)}


@dataclass
class ValidationReport:
    """Outcome of checking a family of laws on one subject.

    ``ok`` is true iff no law was violated.  ``notes`` carries extra
    observations that are not failures (for example cross-route
    agreement flags).
    """

    subject: str
    violations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.violations

    def add(self, law, witness):
        self.violations.append(Violation(law, tuple(witness)))

    def laws_violated(self):
        return sorted({v.law for v in self.violations})

    def as_dict(self):
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "notes": dict(sorted(self.notes.items())),
        }
