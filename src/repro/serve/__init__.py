"""Compilation-as-a-service: wire schema, async server, load harness.

``repro.serve`` turns the scheduling pipeline into a long-lived
service without adding a single runtime dependency:

* :mod:`~repro.serve.wire` — the versioned JSON request/response
  schema, with strict field-path validation and the composite request
  fingerprint built from the engine's canonical per-region keys;
* :mod:`~repro.serve.server` — :class:`CompileServer`, a stdlib
  ``asyncio`` HTTP/1.1 server with in-flight request coalescing, a
  warm-cache fast lane, per-request engine dispatch for cold requests,
  bounded backpressure (``429`` + ``Retry-After``), and flight-recorder
  integration; :class:`ServerThread` hosts it for tests and tools;
* :mod:`~repro.serve.loadtest` — seeded open/closed-loop load
  generation with latency quantiles, quality cross-checks, and a
  regression gate in the style of ``repro bench --compare``.

The contract, enforced by ``tests/test_serve.py``: served responses
are byte-identical (modulo timings) to the serial harness for every
registered scheduler, cold cache and warm.  See ``docs/serving.md``.
"""

from .loadtest import LoadReport, LoadtestConfig, run_loadtest
from .server import CompileServer, ServeConfig, ServerThread
from .wire import (
    MAX_INSTRUCTIONS,
    MAX_REGIONS,
    REQUEST_KIND,
    RESPONSE_KIND,
    WIRE_SCHEMA_VERSION,
    ParsedRequest,
    WireError,
    compile_request,
    parse_request,
    program_from_dict,
    program_to_dict,
    region_from_dict,
    region_to_dict,
    request_key,
)

__all__ = [
    "CompileServer",
    "LoadReport",
    "LoadtestConfig",
    "MAX_INSTRUCTIONS",
    "MAX_REGIONS",
    "ParsedRequest",
    "REQUEST_KIND",
    "RESPONSE_KIND",
    "ServeConfig",
    "ServerThread",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "compile_request",
    "parse_request",
    "program_from_dict",
    "program_to_dict",
    "region_from_dict",
    "region_to_dict",
    "request_key",
    "run_loadtest",
]
