"""The wire format of the coordination service.

The paper frames Youtopia's coordination component as a *service* behind a
travel web site's middle tier — many client applications, one coordinating
system.  :mod:`repro.service.remote.codec` is the length-prefixed
JSON-over-TCP protocol that makes the same
:class:`~repro.service.api.CoordinationService` /
:class:`~repro.service.api.IntrospectionService` protocols work across a
network: versioned request/response frames, push notifications and typed
error marshalling.

The server speaking it is :class:`~repro.service.aio.AsyncCoordinationServer`;
the client is :class:`~repro.service.aio.AsyncRemoteService`, driven from
synchronous code through :class:`~repro.service.aio.BridgedService`.  See the
"Remote deployment" section of ``docs/API.md`` for the wire format and
failure semantics, and ``examples/remote_travel.py`` for a two-process
walkthrough.
"""
