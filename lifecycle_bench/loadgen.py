"""Closed-loop HTTP/1.1 load generator for the lifecycle benchmark.

Standard library only, and nothing from ``repro``: the benchmark starts
it with the ``spawn`` method, so the child is a fresh interpreter that
shares no lock, thread or allocator with the threaded program it
measures.  One thread drives up to ``connections`` keep-alive sockets
through a selector; each socket has at most one request in flight, and
the next request goes out only after the previous response has been
read in full (a closed loop: ASdb's readers are bulk annotators that
wait for every reply).

The program drives the generator over a ``multiprocessing`` pipe:

* ``("connect", host, port)`` -- close any open sockets, connect to the
  service at ``(host, port)`` and warm up.  The reply is
  ``{"ready": bool}``, so no burst pays for connecting.
* ``("load", requests, expected)`` -- keep the pre-encoded ``requests``
  of the next burst; ``expected[i]`` is the status request ``i`` must
  answer with.  The reply is ``"loaded"``, so the transfer stays
  outside the burst.
* ``("burst",)`` -- send every loaded request once, in order.  The
  reply is a dict with the burst's wall seconds, the client CPU
  seconds, two ``array('d')`` byte strings indexed like the requests
  (``latencies``: seconds from writing the request to reading its full
  response; ``done``: seconds from the start of the burst to that
  moment; NaN for a request that got no response), a status
  histogram, the count of responses whose status differed from the
  expected one, and connection errors.
* ``("stop",)`` -- close every socket and exit.
"""

from __future__ import annotations

import math
import os
import select
import selectors
import socket
import time
from array import array

#: Requests sent on every connection before the first timed burst.
WARMUP_REQUESTS = 200
_WARMUP = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"
_HEADER_END = b"\r\n\r\n"
_LENGTH = b"\r\ncontent-length:"
#: A burst gives up on a connection that answers nothing for this long.
_STALL_SECONDS = 10.0


class _Connection:
    """One keep-alive socket with at most one request in flight."""

    __slots__ = ("sock", "buffer", "sent_at", "index", "broken")

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = bytearray()
        self.sent_at = 0.0
        self.index = -1
        self.broken = False

    def send(self, payload: bytes) -> None:
        view = memoryview(payload)
        while view:
            try:
                view = view[self.sock.send(view):]
            except BlockingIOError:
                select.select([], [self.sock], [], _STALL_SECONDS)

    def take_response(self):
        """``(status, consumed bytes)`` of the first complete response
        in the buffer, or None while it is still arriving."""
        end = self.buffer.find(_HEADER_END)
        if end < 0:
            return None
        head = bytes(self.buffer[:end]).lower()
        status = int(head[9:12])  # "http/1.1 200 ok"
        at = head.find(_LENGTH)
        length = 0
        if at >= 0:
            stop = head.find(b"\r\n", at + len(_LENGTH))
            length = int(head[at + len(_LENGTH):stop if stop >= 0 else None])
        total = end + len(_HEADER_END) + length
        if len(self.buffer) < total:
            return None
        return status, total

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def run_burst(connections, requests, expected):
    """One closed-loop burst over ``connections`` that sends every
    request once, in order; see the module doc for the reply."""
    selector = selectors.DefaultSelector()
    count = len(requests)
    latencies = array("d", [math.nan]) * count
    done = array("d", [math.nan]) * count
    statuses = {}
    mismatched = 0
    errors = 0
    cursor = 0
    clock = time.perf_counter
    cpu_start = time.process_time()
    start = clock()

    def issue(conn) -> bool:
        nonlocal cursor, errors
        conn.index = cursor
        cursor += 1
        conn.sent_at = clock()
        try:
            conn.send(requests[conn.index])
        except OSError:
            conn.broken = True
            errors += 1
            return False
        return True

    in_flight = 0
    for conn in connections:
        if cursor < count and not conn.broken and issue(conn):
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            in_flight += 1
    while in_flight:
        events = selector.select(timeout=_STALL_SECONDS)
        if not events:
            errors += in_flight
            for key in list(selector.get_map().values()):
                key.data.broken = True
            break
        for key, _ in events:
            conn = key.data
            try:
                chunk = conn.sock.recv(262144)
            except BlockingIOError:
                continue
            except OSError:
                chunk = b""
            if not chunk:
                conn.broken = True
                errors += 1
            else:
                conn.buffer += chunk
                reply = conn.take_response()
                if reply is None:
                    continue
                now = clock()
                status, consumed = reply
                del conn.buffer[:consumed]
                latencies[conn.index] = now - conn.sent_at
                done[conn.index] = now - start
                statuses[status] = statuses.get(status, 0) + 1
                if status != expected[conn.index]:
                    mismatched += 1
                if cursor < count and issue(conn):
                    continue
            in_flight -= 1
            selector.unregister(conn.sock)
    wall = clock() - start
    cpu = time.process_time() - cpu_start
    selector.close()
    return {
        "seconds": wall,
        "cpu_seconds": cpu,
        "latencies": latencies.tobytes(),
        "done": done.tobytes(),
        "statuses": statuses,
        "mismatched": mismatched,
        "errors": errors,
    }


def _connect(address, connections: int):
    """Open ``connections`` keep-alive sockets and warm them up; returns
    them and whether all of them work."""
    conns = [_Connection(address) for _ in range(max(1, connections))]
    for _ in range(WARMUP_REQUESTS):
        run_burst(conns, [_WARMUP] * len(conns), [200] * len(conns))
    return conns, not any(conn.broken for conn in conns)


def serve(pipe, connections: int, cpus=None) -> None:
    """Process entry point: pin to ``cpus`` (when given), then run
    commands until told to stop."""
    if cpus:
        os.sched_setaffinity(0, cpus)
    address = None
    conns = []
    requests, expected = [], []
    try:
        pipe.send("started")
        while True:
            command = pipe.recv()
            if command[0] == "stop":
                break
            if command[0] == "connect":
                for conn in conns:
                    conn.close()
                conns = []
                address = command[1:]
                try:
                    conns, ready = _connect(address, connections)
                except OSError:
                    ready = False
                pipe.send({"ready": ready})
                continue
            if command[0] == "load":
                _, requests, expected = command
                pipe.send("loaded")
                continue
            for position, conn in enumerate(conns):
                if conn.broken:
                    # Replace a connection a previous burst lost.
                    conn.close()
                    try:
                        conns[position] = _Connection(address)
                    except OSError:
                        pass
            pipe.send(run_burst(conns, requests, expected))
    finally:
        for conn in conns:
            conn.close()
        pipe.close()
