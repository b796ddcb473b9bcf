"""Open-loop load generation against the routing service.

The callers of a routing service are independent users, so arrivals follow
a seeded Poisson schedule whatever the service does, and each request is
timed from when it was *due*: a stall delays every request behind it, and
that wait counts.  At most two connections, each on its own thread, send
the requests in due order; when both are busy the next request goes out
late, and :attr:`Record.late_s` says by how much.  Each request opens its
own connection, as the project's ``Client`` does, so at most two are open
at once.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

CONNECTIONS = 2
TIMEOUT_S = 30.0


@dataclass
class Record:
    """One request's timeline (``time.monotonic`` seconds) and raw answer."""

    due: float
    sent: float
    done: float
    status: Optional[int]
    payload: Optional[bytes]

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return max(0.0, self.sent - self.due)


def poisson_offsets(unit_offsets: np.ndarray, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets at ``rate`` per second within ``duration`` seconds.

    ``unit_offsets`` is a rate-1 Poisson process (cumulative exponential
    gaps); scaling it keeps a phase's arrivals a pure function of the seed
    and the rate.
    """
    offsets = unit_offsets / rate
    return offsets[offsets < duration]


def unit_poisson(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0, size=count))


def drive(host: str, port: int, offsets, bodies: list) -> list:
    """POST ``bodies[i]`` to ``/evaluate`` at ``start + offsets[i]``; one record each.

    A request whose connection fails is recorded with ``status=None``.
    """
    if len(offsets) != len(bodies):
        raise ValueError("one body per arrival offset")
    records: list = [None] * len(bodies)
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))
    start = time.monotonic() + 0.01

    def sender() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + offsets[i]
            delay = due - time.monotonic()
            if delay > 0.0:
                time.sleep(delay)
            sent = time.monotonic()
            status = payload = None
            # One connection per request, as ``repro.api.client.Client`` does.
            conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
            try:
                conn.request(
                    "POST",
                    "/evaluate",
                    body=bodies[i],
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            records[i] = Record(due, sent, time.monotonic(), status, payload)

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def get_json(host: str, port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(body)
    finally:
        conn.close()
