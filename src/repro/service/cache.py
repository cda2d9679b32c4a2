"""What-if queries, canonical cache keys, and the LRU result cache.

A what-if query asks "what happens to FCT / affected flows if link X
degrades to loss rate p" — operationally it is one
:class:`~repro.runner.spec.ExperimentSpec` cell dispatched to the
fastpath (or hybrid/packet) backend.  Two things make the cache hit
rate matter more than raw dispatch speed:

* **canonicalization** — the JSON body ``{"loss_rate": "0.001"}`` and
  ``{"loss_rate": 1e-3}`` describe the same physical question, so both
  must coerce to the same float before the key is built.  Coercion
  lives here, *not* in ``ExperimentSpec``, so existing cell ids and
  checkpoint row keys stay byte-stable.
* **grid quantization** — operators probe loss rates like ``1.1e-3``
  vs ``1.05e-3`` that are indistinguishable at the fidelity of the
  models; quantizing to ``loss_sigfigs`` significant figures snaps
  near-duplicate queries onto one *cell grid* key so they share an
  entry.

The key itself reuses :meth:`ExperimentSpec.grid_key` — the repo's
canonical sorted-JSON cell coordinates — prefixed with the two fields
grid_key deliberately excludes (backend and seed), since cached results
must not leak across either.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..runner.cells import lookup
from ..runner.spec import ExperimentSpec

__all__ = ["QueryError", "WhatIfQuery", "quantize_loss", "WhatIfCache"]

#: query fields accepted in a POST /whatif body
_QUERY_FIELDS = {
    "link", "loss_rate", "kind", "transport", "scenario", "flow_size",
    "n_trials", "rate_gbps", "seed", "backend", "lg", "params",
}
_COERCE_FLOAT = ("loss_rate", "rate_gbps")
_COERCE_INT = ("flow_size", "n_trials", "seed", "link")


class QueryError(ValueError):
    """A what-if request body that cannot become a valid spec."""


def quantize_loss(loss_rate: float, sigfigs: int) -> float:
    """Snap a loss rate onto the ``sigfigs``-significant-figure grid.

    ``0`` disables quantization.  The result is a plain float so the
    canonical JSON stays identical however the caller spelled the
    number (``1e-3``, ``0.001``, ``"0.0010"``).
    """
    if sigfigs <= 0 or loss_rate == 0.0:
        return float(loss_rate)
    exponent = math.floor(math.log10(abs(loss_rate)))
    return float(round(loss_rate, -exponent + sigfigs - 1))


class WhatIfQuery:
    """One validated, canonicalized what-if question.

    Construction coerces numeric fields (JSON strings included, never a
    boolean; an integer field takes only an integral number or string)
    and rejects unknown fields, numbers outside the ranges
    :class:`ExperimentSpec` declares (non-finite ones included), and
    ``(kind, backend)`` pairs the cell table has no row for *before*
    anything reaches a worker — admission control should spend workers
    on queries that can run.
    """

    def __init__(self, body: Dict[str, Any], *,
                 default_backend: str = "fastpath") -> None:
        if not isinstance(body, dict):
            raise QueryError("request body must be a JSON object")
        unknown = set(body) - _QUERY_FIELDS
        if unknown:
            raise QueryError(f"unknown query fields: {sorted(unknown)}")
        data = dict(body)
        for name in _COERCE_FLOAT:
            if name in data:
                data[name] = self._to_float(name, data[name])
        for name in _COERCE_INT:
            if name in data:
                data[name] = self._to_int(name, data[name])
        if "loss_rate" not in data:
            raise QueryError("query needs a loss_rate")
        self.link: Optional[int] = data.pop("link", None)
        self.spec = self._build_spec(data, default_backend)

    @staticmethod
    def _to_float(name: str, value: Any) -> float:
        if isinstance(value, bool):      # float() would read true as 1.0
            raise QueryError(f"{name} must be a number")
        try:
            return float(value)
        except (TypeError, ValueError):
            raise QueryError(f"{name} must be a number") from None

    @staticmethod
    def _to_int(name: str, value: Any) -> int:
        # int() would read true as 1 and truncate 3.7 to 3
        if isinstance(value, bool) or (
                isinstance(value, float) and not value.is_integer()):
            raise QueryError(f"{name} must be an integer")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise QueryError(f"{name} must be an integer") from None

    @staticmethod
    def _build_spec(data: Dict[str, Any], default_backend: str) -> ExperimentSpec:
        data.setdefault("kind", "fct")
        data.setdefault("backend", default_backend)
        try:
            spec = ExperimentSpec.from_dict(data)
            # run_cell looks the row up too, but by then a queue slot
            # and a dispatcher turn are spent.
            lookup(spec.kind, spec.backend)
        except (TypeError, ValueError) as exc:
            raise QueryError(str(exc)) from None
        return spec

    def cache_key(self, loss_sigfigs: int = 3) -> str:
        """The canonical cell-grid key this query's result is filed under.

        ``grid_key`` excludes seed and backend by design (cross-backend
        seed derivation); a cache must *not* share entries across
        either, so both are prefixed back on.
        """
        spec = self.spec
        quantized = quantize_loss(spec.loss_rate, loss_sigfigs)
        if quantized != spec.loss_rate:
            from dataclasses import replace

            spec = replace(spec, loss_rate=quantized)
        return f"{spec.backend}:{spec.seed}:{spec.grid_key()}"

    def to_spec_dict(self) -> Dict[str, Any]:
        """The worker-facing payload (plain dict: must cross a pickle
        boundary to process-pool workers)."""
        return self.spec.to_dict()


class WhatIfCache:
    """A counting LRU over what-if results, keyed on cell-grid keys."""

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, *, record_miss: bool = True) -> Tuple[bool, Any]:
        """``(hit, value)``; a hit refreshes the entry's recency.

        ``record_miss=False`` is for internal re-probes (the
        dispatcher's dog-pile check) that would otherwise double-count
        every cold query as two misses.
        """
        try:
            value = self._entries[key]
        except KeyError:
            if record_miss:
                self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
        }
