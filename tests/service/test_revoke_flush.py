"""Pushed revokes leave at the end of the sweep, not with the reply.

The server coalesces everything one read answers into one socket write.
A revocation must not ride that to the end of the turn: the holder's
``revoke`` is handed to its socket when the grant-table sweep ends —
one write per connection per sweep — *before* the ``env`` op that
caused the flip builds its reply.  The spy below records every
server-side ``transport.write`` in order.
"""

from __future__ import annotations

import asyncio
from typing import List, Tuple

import pytest

from repro.service import PDPOutcome, RemotePDPClient
from repro.service.protocol import BINARY_MAGIC, KIND_REVOKE

from tests.service.test_revocation import REQUEST, make_server

Write = Tuple[object, bytes]


def spy_on_writes(server) -> List[Write]:
    """Log ``(connection, bytes)`` for every write the server's open
    connections hand their transports from now on."""
    log: List[Write] = []
    for connection in server._open:
        transport = connection.transport

        def write(data, connection=connection, send=transport.write):
            log.append((connection, bytes(data)))
            send(data)

        transport.write = write
    return log


def revokes_in(data: bytes, wire: str) -> int:
    if wire == "json":
        return data.count(b'"op":"revoke"')
    count = 0
    while data and data[0] == BINARY_MAGIC:
        count += data[1] == KIND_REVOKE
        data = data[6 + int.from_bytes(data[2:6], "big"):]
    return count


@pytest.mark.parametrize("wire", ["json", "binary"])
@pytest.mark.parametrize("same_connection", [True, False])
def test_revoke_is_written_before_the_env_reply(
    wire: str, same_connection: bool
) -> None:
    async def scenario():
        _, server = make_server()
        async with server:
            holder = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire=wire
            )
            flipper = holder if same_connection else (
                await RemotePDPClient.connect("127.0.0.1", server.port)
            )
            granted = [
                await holder.decide(REQUEST, subscribe=True) for _ in range(3)
            ]
            assert all(r.outcome is PDPOutcome.GRANT for r in granted)
            writes = spy_on_writes(server)
            await flipper.env("advance", seconds=3 * 3600)
            await holder.close()
            if flipper is not holder:
                await flipper.close()
            return writes

    writes = asyncio.run(scenario())
    pushed = [i for i, (_, data) in enumerate(writes) if revokes_in(data, wire)]
    replied = [i for i, (_, data) in enumerate(writes) if b'"op":"env"' in data]
    # One write per connection per sweep, carrying all three revokes...
    assert len(pushed) == 1 and len(replied) == 1
    assert revokes_in(writes[pushed[0]][1], wire) == 3
    # ...handed to the socket before the op's reply existed.
    assert pushed[0] < replied[0]
    assert b'"op":"env"' not in writes[pushed[0]][1]
