"""The asyncio-native coordination service API (``repro.service.aio``).

The awaitable twin of :mod:`repro.service`: the same DTOs and wire codec,
an async call surface, and a single-event-loop network plane.

* :class:`~repro.service.aio.api.AsyncCoordinationService` /
  :class:`~repro.service.aio.api.AsyncIntrospectionService` — the protocols
* :class:`~repro.service.aio.handles.AsyncRequestHandle` — awaitable handles
  (``await handle`` → :class:`~repro.service.api.AnswerEnvelope`)
* :class:`~repro.service.aio.inprocess.AsyncInProcessService` — in-process
  implementation (compute on an executor, waits callback-driven)
* :class:`~repro.service.aio.server.AsyncCoordinationServer` /
  :class:`~repro.service.aio.server.BackgroundAsyncServer` — the network
  server
* :class:`~repro.service.aio.client.AsyncRemoteService` /
  :class:`~repro.service.aio.client.AsyncRemoteHandle` — the multiplexed
  client
* :class:`~repro.service.aio.bridge.BridgedService` — a synchronous facade
  over any async service; ``BridgedService.connect(host, port)`` is the
  synchronous remote client

See ``docs/API.md`` ("Async quickstart") and ``docs/ARCHITECTURE.md``
("The request plane") for the contract and the backpressure rules.
"""

from repro.service.aio.api import AsyncCoordinationService, AsyncIntrospectionService
from repro.service.aio.bridge import BridgedHandle, BridgedService
from repro.service.aio.client import AsyncRemoteHandle, AsyncRemoteService, connect_async
from repro.service.aio.handles import AsyncRequestHandle
from repro.service.aio.inprocess import AsyncInProcessService
from repro.service.aio.server import (
    AsyncCoordinationServer,
    AsyncServerBase,
    BackgroundAsyncServer,
)

__all__ = [
    "AsyncCoordinationServer",
    "AsyncServerBase",
    "AsyncCoordinationService",
    "AsyncInProcessService",
    "AsyncIntrospectionService",
    "AsyncRemoteHandle",
    "AsyncRemoteService",
    "AsyncRequestHandle",
    "BackgroundAsyncServer",
    "BridgedHandle",
    "BridgedService",
    "connect_async",
]
