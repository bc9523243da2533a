"""The serveable request: pure data, parsed without loading the solver.

:class:`SolveRequest` is what ``POST /solve`` carries.  It lives apart from
:mod:`repro.service.scheduler` (which re-exports it) because the fleet
coordinator validates every request body but never solves: this module
imports only the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["SolveRequest"]


@dataclass(frozen=True)
class SolveRequest:
    """One serveable solve: pure data, rebuildable in any worker process."""

    workload: str
    algorithm: str
    graph_seed: int = 0
    seed: int | None = None
    config: tuple[tuple[str, Any], ...] = ()
    verify: bool = True
    #: Lower runs first within a shard; ties are FIFO.
    priority: int = 10
    #: Publish round-by-round progress on ``/events/<key>`` while solving.
    #: Not part of the content address: a streamed and an unstreamed
    #: request for the same solve coalesce onto one computation (whose
    #: streaming follows the *first* enqueued request).
    stream: bool = False
    #: Propagated ``X-Repro-Trace`` header value (W3C-traceparent shape).
    #: Like ``stream``, not part of the content address: tracing never
    #: changes what is computed, only what is recorded about it.
    trace: str | None = None

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> "SolveRequest":
        """Parse + validate a JSON request body (unknown keys rejected)."""
        allowed = {"workload", "algorithm", "graph_seed", "seed", "config",
                   "verify", "priority", "stream", "trace"}
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown request fields {sorted(unknown)}; "
                             f"accepted: {sorted(allowed)}")
        for required in ("workload", "algorithm"):
            if not obj.get(required):
                raise ValueError(f"request field {required!r} is required")
        config = obj.get("config") or {}
        if not isinstance(config, Mapping):
            raise ValueError("request field 'config' must be an object")
        seed = obj.get("seed")
        return cls(
            workload=str(obj["workload"]),
            algorithm=str(obj["algorithm"]),
            graph_seed=int(obj.get("graph_seed", 0)),
            seed=None if seed is None else int(seed),
            config=tuple(sorted(config.items())),
            verify=bool(obj.get("verify", True)),
            priority=int(obj.get("priority", 10)),
            stream=bool(obj.get("stream", False)),
            trace=str(obj["trace"]) if obj.get("trace") else None,
        )

    @property
    def config_dict(self) -> dict[str, Any]:
        return dict(self.config)
