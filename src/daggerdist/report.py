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

Emission is byte-deterministic, and :func:`emit_json` is its one writer: it
walks each record's raw values once, writing rationals as "num/den" strings,
a magnitude p^q as "p^num/den" ("0" at bottom) and INFINITY as "inf", dict
keys as strings in sorted order, in the layout of ``json.dumps(indent=2)``.
Records are sorted stably by check id, then by the compact sorted-key JSON of
their written params; fields have a fixed order.  ``to_dict`` on a record or
a report is the parse of that text, which :func:`emit_text` reads.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Optional

from .padic import INFINITY, LogMag

PASS = "pass"
FAIL = "fail"
REGIME_UNMET = "regime-unmet"
LOWER_BOUND_PASS = "lower-bound-pass"
INCONCLUSIVE = "inconclusive"

SCHEMA_VERSION = 1


class _Fields:
    """Field-wise ``==`` and ``repr`` over ``__slots__``, as a dataclass has; mutable, so unhashable."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        get = attrgetter(*self.__slots__)
        return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"


class CheckRecord(_Fields):
    """One check's outcome; ``anchor`` states what is checked, ``params`` and ``details`` default to fresh dicts."""

    __slots__ = ("check_id", "anchor", "verdict", "params", "witness", "details")

    def __init__(self, check_id: str, anchor: str, verdict: str, params=None, witness=None, details=None):
        self.check_id, self.anchor, self.verdict, self.witness = check_id, anchor, verdict, witness
        self.params: Dict[str, Any] = {} if params is None else params
        self.details: Dict[str, Any] = {} if details is None else details

    def to_dict(self) -> Dict[str, Any]:
        return json.loads(_record_json(self)[2])


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


class Report(_Fields):
    __slots__ = ("group", "seed", "records")

    def __init__(self, group: str, seed: Optional[int], records: Optional[List[CheckRecord]] = None):
        self.group, self.seed, self.records = group, seed, [] if records is None else records

    def extend(self, records):
        self.records.extend(records)

    @property
    def failed(self) -> List[CheckRecord]:
        return [r for r in self.records if r.verdict == FAIL]

    def counts(self) -> Dict[str, int]:
        """Records per verdict, in a fixed order; ``inconclusive`` only when some record has it."""
        counts = {
            verdict: sum(r.verdict == verdict for r in self.records)
            for verdict in (PASS, LOWER_BOUND_PASS, REGIME_UNMET, INCONCLUSIVE, FAIL)
        }
        if not counts[INCONCLUSIVE]:
            del counts[INCONCLUSIVE]
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return json.loads(emit_json(self))


_quote = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it
_LAYOUT = re.compile(r"\n *")  # a newline and its indent: strings escape theirs, so each one is layout


def _object(fields, pad: str) -> str:
    """A JSON object, in the given order, of (key, text) fields whose texts were written at pad + 2 spaces."""
    inner = pad + "  "
    return "{" + inner + ("," + inner).join([f"{_quote(k)}: {text}" for k, text in fields]) + pad + "}"


def _json(value, pad: str) -> str:
    """The indent=2 JSON text of a report value whose first line is opened by pad (a newline and an indent)."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is Fraction:
        return f'"{value.numerator}/{value.denominator}"'
    if kind is LogMag:
        return '"0"' if value.exponent is None else f'"p^{value.exponent.numerator}/{value.exponent.denominator}"'
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + pad + "]" if value else "[]"
    if isinstance(value, dict):  # by str(key), a later key of the same string taking its place
        value = {str(k): v for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
        return _object([(k, _json(v, inner)) for k, v in value.items()], pad) if value else "{}"
    return '"inf"' if value == INFINITY else json.dumps(value)  # None, a bool, a float


def _record_json(r: CheckRecord) -> tuple:
    """(check id, compact sorted-key JSON of the written params, the record's indent=2 text) in one walk."""
    fields = [("check", r.check_id), ("anchor", r.anchor), ("params", r.params), ("verdict", r.verdict)]
    if r.witness is not None:
        fields.append(("witness", r.witness))
    if r.details:
        fields.append(("details", r.details))
    fields = [(k, _json(v, "\n      ")) for k, v in fields]  # a record is an item of the report's checks list
    params = fields[2][1]
    # _json sorted the params' keys, so dropping the layout, with ", " between items, gives json.dumps(sort_keys=True)
    return r.check_id, _LAYOUT.sub("", params.replace(",\n", ", \n")), _object(fields, "\n    ")


def emit_json(report: Report) -> bytes:
    """The report as indent=2 JSON and a newline: header, counts, then the sorted records, each written in one walk."""
    records = sorted(map(_record_json, report.records), key=itemgetter(0, 1))
    checks = "[\n    " + ",\n    ".join([text for _, _, text in records]) + "\n  ]" if records else "[]"
    counts = _object([(verdict, str(n)) for verdict, n in report.counts().items()], "\n  ")
    head = [("schema", str(SCHEMA_VERSION)), ("group", _json(report.group, "\n  ")), ("seed", _json(report.seed, "\n  "))]
    return (_object([*head, ("counts", counts), ("checks", checks)], "\n") + "\n").encode()


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
