"""Machine-readable results for property checks and comparisons.

Every sampled check computes one margin per checked case, positive where the
case violates the property, and builds its report run by run with ``_worst_case``.
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


def _worst_case(name: str, spans, tolerance: float, samples_checked: int) -> CheckReport:
    """The report of a sampled check from the ``(margins, witness)`` runs of
    consecutive cases that ``spans`` yields, a margin being positive where its
    case violates the property: the largest margin (0 if none is positive)
    and, as witnesses, ``{**witness(k), "margin": margins[k]}`` for the
    ``_MAX_WITNESSES`` largest positive margins, k indexing the run's flat
    margins: NaN first, then largest first, ties in case order, however the
    cases are cut.  A run's witness is called before the next run is drawn."""
    worst, kept = 0.0, []
    for margins, witness in spans:
        margins = np.ravel(margins)
        worst = np.maximum(worst, margins.max(initial=0.0))  # NaN kept
        violating = np.flatnonzero(~(margins <= 0))  # positive or NaN
        order = np.lexsort((-margins[violating], ~np.isnan(margins[violating])))  # stable: ties keep ascending k
        for k in violating[order[:_MAX_WITNESSES]]:
            m = float(margins[k])  # ranked NaN first, then largest
            kept.append(((m == m, -m if m == m else 0.0), {**witness(int(k)), "margin": m}))
        kept = sorted(kept, key=lambda c: c[0])[:_MAX_WITNESSES]  # stable: earlier runs' ties stay first
    return CheckReport(name, worst, tolerance, samples_checked, [w for _, w in kept])


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
