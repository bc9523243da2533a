"""Lossless JSON round-trip for :class:`RunReport` / :class:`Provenance`.

``RunReport.to_row()`` is a *summary* (it keeps ``output_size``, drops the
output set and the per-check certificate detail) -- good enough for tables,
not good enough for a cache that must hand back the report it stored.  This
module is the full-fidelity counterpart used by the service layer's solve
cache and anything else that persists reports:

* :func:`report_to_json` / :func:`report_from_json` round-trip everything
  except ``payload`` (live Python objects -- sparsification sequences, ID
  maps, native result dataclasses -- are never serialised; a deserialised
  report has an empty payload, which is documented cache behaviour);
* node labels are arbitrary hashables in this library (ints, strings,
  ``(row, col)`` grid tuples, mixed labels on the adversarial families), so
  the output set uses a tagged encoding (:func:`encode_node` /
  :func:`decode_node`) that survives JSON's type system -- in particular
  tuples do not come back as lists;
* the certificate is serialised check-by-check (name / ok / detail), so a
  cache hit replays the exact verdict the original solve produced;
* the text is canonical: compact separators and sorted keys.  It is the
  one form a served report travels in -- the solving process encodes it
  once, and the service's cache tiers, HTTP bodies and fleet relay pass
  the same text along without parsing it (see
  :class:`repro.service.cache.CachedReport`).  :func:`report_from_json`
  reads any JSON spelling, so rows written with the old ``", "`` /
  ``": "`` separators still load.
"""

from __future__ import annotations

import json
from typing import Any, Hashable, Mapping

from repro.api.certify import Certificate, Check
from repro.api.report import Provenance, RunReport

Node = Hashable

__all__ = [
    "decode_node",
    "encode_node",
    "report_from_json",
    "report_to_json",
]

#: JSON scalars that pass through the node encoding untouched.  ``bool`` is
#: listed before the ``int`` check would see it only because JSON keeps the
#: two types distinct anyway -- no tagging needed for any scalar.
_SCALARS = (bool, int, float, str, type(None))


def encode_node(node: Node) -> Any:
    """Encode one node label as a JSON-safe value.

    Scalars (int, float, str, bool, None) are themselves; tuples become
    ``{"t": [...]}`` (recursively), so they round-trip as tuples instead of
    decaying to lists.  Anything else is rejected loudly -- a silent
    ``str()`` fallback would make deserialised outputs unequal to fresh
    ones, breaking the cache's bit-for-bit contract.
    """
    if isinstance(node, _SCALARS):
        return node
    if isinstance(node, tuple):
        return {"t": [encode_node(part) for part in node]}
    raise TypeError(
        f"node label {node!r} of type {type(node).__name__} is not "
        f"JSON-serialisable; supported: int, float, str, bool, None and "
        f"tuples thereof")


def decode_node(value: Any) -> Node:
    """Inverse of :func:`encode_node`."""
    if isinstance(value, dict):
        return tuple(decode_node(part) for part in value["t"])
    return value


def _certificate_to_obj(certificate: Certificate) -> dict[str, Any]:
    return {
        "problem": certificate.problem,
        "checks": [{"name": check.name, "ok": check.ok, "detail": check.detail}
                   for check in certificate.checks],
    }


def _certificate_from_obj(obj: Mapping[str, Any]) -> Certificate:
    return Certificate(
        problem=str(obj["problem"]),
        checks=[Check(name=str(check["name"]), ok=bool(check["ok"]),
                      detail=str(check.get("detail", "")))
                for check in obj.get("checks", ())])


def report_to_json(report: RunReport) -> str:
    """Serialise a report to one compact JSON line (payload dropped).

    Keys are sorted, so the top-level keys come in the order
    ``certificate``, ``metrics``, ``output``, ``provenance``, ``rounds``,
    and ``certificate`` is present exactly when the report carries one:
    the text of such a report begins with ``{"certificate":``.
    """
    obj: dict[str, Any] = {
        "output": [encode_node(node)
                   for node in sorted(report.output, key=str)],
        "rounds": report.rounds,
        "metrics": dict(report.metrics),
        "provenance": report.provenance.to_row(),
    }
    if report.certificate is not None:
        obj["certificate"] = _certificate_to_obj(report.certificate)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_from_json(text: str | Mapping[str, Any]) -> RunReport:
    """Rebuild a :class:`RunReport` from :func:`report_to_json` output.

    The returned report is equal to the original in output, rounds,
    metrics, provenance and certificate verdict; ``payload`` is empty (live
    objects are never serialised).  ``replay``-ing its provenance on the
    fingerprinted graph reproduces the full report, payload included.
    """
    obj = json.loads(text) if isinstance(text, str) else dict(text)
    certificate = None
    if obj.get("certificate") is not None:
        certificate = _certificate_from_obj(obj["certificate"])
    return RunReport(
        output={decode_node(value) for value in obj.get("output", ())},
        rounds=int(obj["rounds"]),
        provenance=Provenance.from_row(obj["provenance"]),
        metrics=dict(obj.get("metrics") or {}),
        payload={},
        certificate=certificate,
    )
