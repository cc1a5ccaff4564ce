"""Transport-level metrics of the network server.

:class:`TransportMetrics` is a small thread-safe counter block that the
:class:`~repro.service.aio.server.AsyncCoordinationServer` (and the cluster
router, which shares its request plane) populates.  A snapshot crosses the
wire inside the ``stats`` operation and surfaces as
:attr:`~repro.service.api.ServiceStats.transport`:

* ``connections_open`` / ``connections_total`` — live and lifetime accepted
  client connections;
* ``requests_in_flight`` / ``requests_total`` — operations currently being
  handled and handled since start;
* ``bytes_in`` / ``bytes_out`` — wire traffic, counted on whole frames;
* ``rejected_backpressure`` — requests refused because a connection exceeded
  its in-flight budget.
"""

from __future__ import annotations

import threading


class TransportMetrics:
    """Thread-safe counters describing one server's request plane."""

    __slots__ = (
        "_lock",
        "connections_open",
        "connections_total",
        "requests_in_flight",
        "requests_total",
        "bytes_in",
        "bytes_out",
        "rejected_backpressure",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.connections_open = 0
        self.connections_total = 0
        self.requests_in_flight = 0
        self.requests_total = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.rejected_backpressure = 0

    # -- connection lifecycle ---------------------------------------------------------------

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_open += 1
            self.connections_total += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_open -= 1

    # -- request lifecycle ------------------------------------------------------------------

    def request_started(self) -> None:
        with self._lock:
            self.requests_in_flight += 1
            self.requests_total += 1

    def request_finished(self) -> None:
        with self._lock:
            self.requests_in_flight -= 1

    def request_rejected(self) -> None:
        with self._lock:
            self.rejected_backpressure += 1

    # -- traffic ----------------------------------------------------------------------------

    def add_bytes_in(self, count: int) -> None:
        with self._lock:
            self.bytes_in += count

    def add_bytes_out(self, count: int) -> None:
        with self._lock:
            self.bytes_out += count

    # -- reporting ---------------------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """A point-in-time copy of every counter (wire- and admin-friendly)."""
        with self._lock:
            return {
                "connections_open": self.connections_open,
                "connections_total": self.connections_total,
                "requests_in_flight": self.requests_in_flight,
                "requests_total": self.requests_total,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "rejected_backpressure": self.rejected_backpressure,
            }
