"""The always-on control plane (``repro serve``).

Everything the batch pipeline does offline — corruptd loss estimation,
fleet arbitration, what-if evaluation — hosted as one long-running
asyncio process: streaming telemetry in, controller decisions and
cached what-if answers out, Prometheus exposition throughout.

Layers (each its own module, composed by :mod:`repro.service.app`):

==============  ==========================================================
``config``      :class:`ServiceConfig` — every knob, one frozen dataclass;
                the evidence table (parser, demo feed, monitor per kind)
``telemetry``   record parsing, line splitting, file/synthetic sources
``arbiter``     :class:`StreamingArbiter` — the evidence monitor on counters
``cache``       :class:`WhatIfQuery` canonicalization + counting LRU
``http``        stdlib asyncio HTTP/1.1 server + test client
``app``         :class:`ControlPlaneService` — wiring, admission, drain
==============  ==========================================================
"""

from .app import (
    SNAPSHOT_VERSION, ControlPlaneService, ServiceSnapshot, load_snapshot,
)
from .arbiter import StreamingArbiter
from .cache import QueryError, WhatIfCache, WhatIfQuery, quantize_loss
from .config import EXECUTOR_KINDS, TELEMETRY_KINDS, ServiceConfig
from .telemetry import (
    SyntheticTelemetry, TelemetryError, TelemetryRecord, file_source,
    parse_record,
)

__all__ = [
    "ControlPlaneService", "ServiceSnapshot", "load_snapshot",
    "SNAPSHOT_VERSION",
    "StreamingArbiter",
    "WhatIfQuery", "WhatIfCache", "QueryError", "quantize_loss",
    "ServiceConfig", "TELEMETRY_KINDS", "EXECUTOR_KINDS",
    "TelemetryRecord", "TelemetryError", "parse_record",
    "file_source", "SyntheticTelemetry",
]
