"""Machine-readable results for property checks and comparisons.

Every sampled check computes one margin per checked case, positive where the
case violates the property, and builds its report run by run in a ``_WorstCases``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckReport"]

_MAX_WITNESSES = 5


@dataclass
class CheckReport:
    """Outcome of a sampled or exact property check.

    ``passed`` is always ``max_violation <= tolerance``; witnesses carry up to
    ``_MAX_WITNESSES`` concrete violating inputs (profile, deviation bid if
    any, margin) for debugging failed checks.
    """

    name: str
    max_violation: float
    tolerance: float
    samples_checked: int
    witnesses: list = field(default_factory=list)
    note: str = ""

    def __post_init__(self):
        self.max_violation = float(self.max_violation) + 0.0  # normalize -0.0

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_violation": float(self.max_violation),
            "tolerance": float(self.tolerance),
            "samples_checked": int(self.samples_checked),
            "witnesses": [_jsonify(w) for w in self.witnesses],
            "note": self.note,
        }


class _WorstCases:
    """The running report of a sampled check, built from the ``(margins,
    witness)`` runs of its consecutive cases, a margin being positive where its
    case violates the property: the largest margin (0 if none is positive)
    and, as witnesses, ``{**witness(k), "margin": margins[k]}`` for the
    ``_MAX_WITNESSES`` largest positive margins, k indexing the run's flat
    margins: NaN first, then largest first, ties in case order, however the
    cases are cut.  ``add`` calls a run's witness before it returns."""

    def __init__(self):
        self.worst, self.kept = 0.0, []

    def add(self, margins, witness) -> None:
        margins = np.ravel(margins)
        violating = np.flatnonzero(~(margins <= 0))  # positive or NaN
        order = np.lexsort((-margins[violating], ~np.isnan(margins[violating])))  # stable: ties keep ascending k
        cases = []
        for k in violating[order[:_MAX_WITNESSES]]:
            m = float(margins[k])  # ranked NaN first, then largest
            cases.append(((m == m, -m if m == m else 0.0), {**witness(int(k)), "margin": m}))
        self._fold(margins.max(initial=0.0), cases)

    def merge(self, later: "_WorstCases") -> "_WorstCases":
        """Fold in the running report of the cases that come after these."""
        return self._fold(later.worst, later.kept)

    def _fold(self, worst, cases) -> "_WorstCases":
        self.worst = np.maximum(self.worst, worst)  # NaN kept
        self.kept = sorted(self.kept + cases, key=lambda c: c[0])[:_MAX_WITNESSES]  # stable: earlier ties stay first
        return self

    def report(self, name: str, tolerance: float, samples_checked: int) -> CheckReport:
        return CheckReport(name, self.worst, tolerance, samples_checked, [w for _, w in self.kept])


def _worst_case(name: str, spans, tolerance: float, samples_checked: int) -> CheckReport:
    """The ``_WorstCases`` report of the ``(margins, witness)`` runs ``spans`` yields."""
    cases = _WorstCases()
    for margins, witness in spans:
        cases.add(margins, witness)
    return cases.report(name, tolerance, samples_checked)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return repr(obj)
