"""Compact JSON text, with already-encoded values spliced in verbatim.

Every row the service stores and every body it sends is compact JSON
(no spaces after ``,`` and ``:``).  A report is encoded once, by the
process that solved it (:func:`repro.api.report_to_json`); after that its
text travels as a :class:`RawJSON` value, which :func:`dumps` writes into
the enclosing row or body as it is instead of parsing and re-encoding it.

Stdlib only: the fleet coordinator imports this module and must never
load :mod:`repro.api`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping

__all__ = ["COMPACT", "RawJSON", "dumps"]

#: ``json.dumps`` separators without the default spaces.
COMPACT = (",", ":")


class RawJSON(str):
    """Text that already is one JSON value; :func:`dumps` inserts it as is."""

    __slots__ = ()


def dumps(obj: Mapping[str, Any], *,
          default: Callable[[Any], Any] | None = None) -> str:
    """``obj`` as one compact JSON object.

    The ordinary values are written with sorted keys (as
    ``json.dumps(..., sort_keys=True, separators=COMPACT)``); the
    top-level :class:`RawJSON` values follow them, in key order, each
    written verbatim.  A raw value nested deeper is written as a string.
    """
    plain = {key: value for key, value in obj.items()
             if not isinstance(value, RawJSON)}
    text = json.dumps(plain, sort_keys=True, separators=COMPACT,
                      default=default)
    if len(plain) == len(obj):
        return text
    raw = "".join(f",{json.dumps(key)}:{value}"
                  for key, value in sorted(obj.items())
                  if isinstance(value, RawJSON))
    if not plain:
        return "{" + raw[1:] + "}"
    return text[:-1] + raw + "}"
