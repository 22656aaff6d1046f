"""The GRBAC decision service — an asyncio PDP serving layer.

The paper's mediation rule (§4.2.4) guards *live* requests; this
package is the layer that takes it to concurrent traffic: a
:class:`PolicyDecisionPoint` with a bounded admission queue,
micro-batching onto the compiled engine's ``decide_batch`` fast path,
a revision-keyed decision cache, explicit overload shedding, and
graceful drain — exposed in-process (:class:`PDPClient`), over
newline-delimited-JSON TCP (:class:`PDPServer` /
:class:`RemotePDPClient`), and via the CLI's ``serve`` / ``loadgen``
subcommands.  See ``docs/SERVICE.md`` for the architecture.
"""

from repro.service.admin import AdminServer
from repro.service.cache import DecisionCache
from repro.service.client import CircuitBreaker, RemotePDPClient
from repro.service.loadgen import (
    ClientPool,
    attach_revocation_probe,
    LoadgenConfig,
    LoadgenResult,
    build_stream,
    compute_expected,
    merge_results,
    run_loadgen,
    run_loadgen_endpoints,
)
from repro.service.pdp import (
    MEDIATED_OUTCOMES,
    PDPClient,
    PDPConfig,
    PDPOutcome,
    PDPResponse,
    PolicyDecisionPoint,
    SessionGrant,
    SessionGrantTable,
)
from repro.service.protocol import InternTables, WireResponse, WireRevocation
from repro.service.server import PDPServer

__all__ = [
    "AdminServer",
    "CircuitBreaker",
    "ClientPool",
    "DecisionCache",
    "InternTables",
    "LoadgenConfig",
    "LoadgenResult",
    "MEDIATED_OUTCOMES",
    "PDPClient",
    "PDPConfig",
    "PDPOutcome",
    "PDPResponse",
    "PDPServer",
    "PolicyDecisionPoint",
    "RemotePDPClient",
    "SessionGrant",
    "SessionGrantTable",
    "WireResponse",
    "WireRevocation",
    "attach_revocation_probe",
    "build_stream",
    "compute_expected",
    "merge_results",
    "run_loadgen",
    "run_loadgen_endpoints",
]
