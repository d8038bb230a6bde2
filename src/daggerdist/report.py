"""Check records and deterministic report emission.

A report is a flat list of check records.  Verdicts are:

* ``pass``            -- an exact comparison succeeded;
* ``lower-bound-pass``-- the small side of an inequality was a certified
                         lower bound computed from truncated data;
* ``regime-unmet``    -- the hypothesis of a conditional statement failed
                         (reported with the exact arithmetic, not as a failure);
* ``inconclusive``    -- a bounded search spent its budget before it settled
                         the question, or a sampled check attempted no
                         instance (never reported as a failure);
* ``fail``            -- an exact comparison failed; a witness is attached.

The process exit status is 1 for ``fail`` only.  ``counts`` lists
``inconclusive`` only when some record has that verdict.

Emission is byte-deterministic: records are sorted, fields have a fixed
order, and all rationals are rendered as "num/den" strings.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

from .padic import INFINITY, LogMag, format_fraction

PASS = "pass"
FAIL = "fail"
REGIME_UNMET = "regime-unmet"
LOWER_BOUND_PASS = "lower-bound-pass"
INCONCLUSIVE = "inconclusive"

SCHEMA_VERSION = 1


def render(value: Any) -> Any:
    """Normalize values for report output (rationals become strings)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, LogMag):
        return "0" if value.is_bottom else "p^" + format_fraction(value.exponent)
    if value == INFINITY:
        return "inf"
    if isinstance(value, (list, tuple)):
        return [render(v) for v in value]
    if isinstance(value, dict):
        return {str(k): render(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return value


@dataclass
class CheckRecord:
    check_id: str
    anchor: str  # human-readable statement of what is being checked
    verdict: str
    params: Dict[str, Any] = field(default_factory=dict)
    witness: Optional[Dict[str, Any]] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "check": self.check_id,
            "anchor": self.anchor,
            "params": render(self.params),
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = render(self.witness)
        if self.details:
            out["details"] = render(self.details)
        return out


def settled(params: Dict[str, Any], ok: str = PASS) -> str:
    """The verdict of a check that found no violation: ``ok``, unless it did no work.

    A check whose params say ``trials: 0`` or ``samples: 0`` attempted no
    instance, so it is ``inconclusive``, never a pass.
    """
    return INCONCLUSIVE if params.get("trials") == 0 or params.get("samples") == 0 else ok


def record(
    check_id: str, anchor: str, params: Dict[str, Any], violations: List[Any], ok: str = PASS, keep: int = 3
) -> CheckRecord:
    """A check's record: ``fail`` with the first ``keep`` violations as witness, else :func:`settled`."""
    return CheckRecord(
        check_id=check_id,
        anchor=anchor,
        verdict=FAIL if violations else settled(params, ok),
        params=params,
        witness={"violations": violations[:keep]} if violations else None,
    )


@dataclass
class Report:
    group: str
    seed: Optional[int]
    records: List[CheckRecord] = field(default_factory=list)

    def extend(self, records):
        self.records.extend(records)

    @property
    def failed(self) -> List[CheckRecord]:
        return [r for r in self.records if r.verdict == FAIL]

    def to_dict(self) -> Dict[str, Any]:
        ordered = sorted(
            self.records,
            key=lambda r: (r.check_id, json.dumps(render(r.params), sort_keys=True)),
        )
        counts = {
            verdict: sum(r.verdict == verdict for r in self.records)
            for verdict in (PASS, LOWER_BOUND_PASS, REGIME_UNMET, INCONCLUSIVE, FAIL)
        }
        if not counts[INCONCLUSIVE]:
            del counts[INCONCLUSIVE]
        return {
            "schema": SCHEMA_VERSION,
            "group": self.group,
            "seed": self.seed,
            "counts": counts,
            "checks": [r.to_dict() for r in ordered],
        }


def emit_json(report: Report) -> bytes:
    return json.dumps(report.to_dict(), indent=2, sort_keys=False).encode() + b"\n"


def emit_text(report: Report) -> bytes:
    data = report.to_dict()
    lines = [f"group: {data['group']}  seed: {data['seed']}"]
    for rec in data["checks"]:
        params = json.dumps(rec["params"], sort_keys=True)
        lines.append(f"[{rec['verdict'].upper():>16}] {rec['check']} {params}")
        lines.append(f"{'':>18} {rec['anchor']}")
        if "witness" in rec:
            lines.append(f"{'':>18} witness: {json.dumps(rec['witness'], sort_keys=True)}")
    lines.append("totals: " + " ".join(f"{verdict}={n}" for verdict, n in data["counts"].items()))
    return ("\n".join(lines) + "\n").encode()
