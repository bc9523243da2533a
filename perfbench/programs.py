"""Starting, probing and stopping program processes, and the load loop.

Each program process (``repro serve``, a fleet coordinator or worker)
runs in a session of its own, so its pool children can be found and
accounted for through ``/proc`` and reaped as a group.  Readiness is
polled every ``POLL_S`` seconds, well under the run-to-run spread of a
set-up that takes one to four seconds.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from perfbench import procfs

__all__ = ["POLL_S", "TRACE_HEADER", "Program", "get_json", "wait_healthy",
           "Outcome", "closed_loop"]

POLL_S = 0.005
#: Request-id header read only by the benchmark's own tracing launcher.
TRACE_HEADER = "X-Perfbench-Request"


class Program:
    """One program process, started in a new session."""

    def __init__(self, argv: Sequence[str], *, cwd: str, env: dict[str, str],
                 log_path: str) -> None:
        self.argv = list(argv)
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            self.argv, cwd=cwd, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            start_new_session=True)

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_port(self, port_file: str, *, timeout_s: float = 60.0) -> int:
        """Poll ``port_file`` until the program has written its port."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                with open(port_file, encoding="utf-8") as handle:
                    text = handle.read().strip()
                if text:
                    return int(text)
            except FileNotFoundError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError(f"{self.argv[2:5]} exited with "
                                   f"{self.process.returncode} before "
                                   f"writing its port")
            if time.monotonic() > deadline:
                raise TimeoutError(f"no port file from {self.argv[2:5]}")
            time.sleep(POLL_S)

    def stop(self, *, timeout_s: float = 20.0) -> None:
        """Interrupt the program, wait for its whole session to exit, and
        kill whatever is left after ``timeout_s``."""
        try:
            if self.process.poll() is None:
                os.kill(self.pid, signal.SIGINT)
                try:
                    self.process.wait(timeout=timeout_s)
                except subprocess.TimeoutExpired:
                    pass
            deadline = time.monotonic() + timeout_s
            while (procfs.session_pids([self.pid])
                   and time.monotonic() < deadline):
                time.sleep(POLL_S)
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait(timeout=timeout_s)
        finally:
            self._log.close()


def get_json(port: int, path: str, *, timeout_s: float = 30.0,
             ) -> tuple[int, Any]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout_s)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(payload)
    except ValueError:
        return response.status, payload.decode("utf-8", "replace")


def wait_healthy(port: int, program: Program, *,
                 timeout_s: float = 60.0) -> None:
    """Poll ``GET /healthz`` until it answers 200."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            status, _ = get_json(port, "/healthz", timeout_s=5.0)
            if status == 200:
                return
        except OSError:
            pass
        if program.process.poll() is not None:
            raise RuntimeError(f"{program.argv[2:5]} exited with "
                               f"{program.process.returncode}")
        if time.monotonic() > deadline:
            raise TimeoutError(f"{program.argv[2:5]} never became healthy")
        time.sleep(POLL_S)


@dataclass
class Outcome:
    """One request as the client saw it (times from ``perf_counter_ns``)."""

    index: int
    status: int  # HTTP status; 0 for a transport error
    start_ns: int
    end_ns: int
    payload: bytes

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def size(self) -> int:
        """Bytes of the response body."""
        return len(self.payload)

    @property
    def latency_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def closed_loop(port: int, bodies: Sequence[bytes], *, clients: int = 2,
                traced: bool = False, window: int | None = None,
                on_window: Callable[[], None] | None = None,
                ) -> list[Outcome]:
    """Send ``bodies`` as ``POST /solve`` from ``clients`` threads.

    Thread ``t`` sends bodies ``t, t + clients, ...`` over one keep-alive
    connection, each only after the previous reply (a closed loop).  With
    ``window``, the threads meet after every ``window`` bodies and
    ``on_window`` runs while they wait, so per-window readings (CPU,
    steal) cover exactly those requests.  With ``traced`` every request
    carries its id and client span id in ``TRACE_HEADER``.
    """
    outcomes: list[Outcome | None] = [None] * len(bodies)
    errors: list[BaseException] = []
    window = window or len(bodies)
    barrier = threading.Barrier(clients, action=on_window)

    def client(offset: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=120)
        try:
            for first in range(0, len(bodies), window):
                last = min(len(bodies), first + window)
                for index in range(first + offset, last, clients):
                    send(connection, index)
                barrier.wait()
        except BaseException as error:  # surfaced after join
            errors.append(error)
            barrier.abort()
        finally:
            connection.close()

    def send(connection: http.client.HTTPConnection, index: int) -> None:
        headers = {"Content-Type": "application/json"}
        if traced:
            headers[TRACE_HEADER] = f"r{index};client:{index}"
        start = time.perf_counter_ns()
        try:
            connection.request("POST", "/solve", body=bodies[index],
                               headers=headers)
            response = connection.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as error:
            connection.close()  # the next request reconnects
            payload, status = repr(error).encode("utf-8"), 0
        outcomes[index] = Outcome(index, status, start,
                                  time.perf_counter_ns(), payload)

    threads = [threading.Thread(target=client, args=(offset,),
                                name=f"perfbench-client-{offset}")
               for offset in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [outcome for outcome in outcomes if outcome is not None]
