"""Shard worker hosts started the documented way, for tests that attach a
coordinator to running hosts by address (``workers=``) instead of letting it
spawn its own.

:class:`WorkerHostProcess` runs ``python -m repro.engine.distributed
--worker 127.0.0.1:0`` (the deployment runbook's command) and waits for its
"listening" line.  :data:`SHARED_HOSTS` holds two such hosts, started on
first use and stopped when the test session ends (``tests/conftest.py``).
Iterating it yields their addresses, so it can stand wherever a ``workers``
sequence is accepted (``LabelingEngine``, ``CampaignSpec``); a host serves
one independent session per connection, so every test may attach to them.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
from typing import Iterator, List

import repro

#: How long a host may take to import the package and bind its port.
START_TIMEOUT_S = 30.0


class WorkerHostProcess:
    """One ``python -m repro.engine.distributed --worker`` child process."""

    def __init__(self) -> None:
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.engine.distributed",
             "--worker", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if "shard worker listening on" not in line:
            self.close()
            raise RuntimeError(f"worker host did not start: {line!r}")
        #: ``host:port`` to pass in ``workers=``.
        self.address = line.rsplit(" ", 1)[-1].strip()

    @property
    def pid(self) -> int:
        return self.process.pid

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        self.process.wait(timeout=10)
        self.process.stdout.close()


class SharedWorkerHosts:
    """``count`` long-lived hosts, started when first iterated."""

    def __init__(self, count: int) -> None:
        self._count = count
        self._hosts: List[WorkerHostProcess] = []

    def __iter__(self) -> Iterator[str]:
        if not self._hosts:
            for _ in range(self._count):
                self._hosts.append(WorkerHostProcess())
        for host in self._hosts:
            if host.process.poll() is not None:
                raise RuntimeError(
                    f"shared worker host {host.address} exited with code "
                    f"{host.process.returncode}"
                )
        return iter([host.address for host in self._hosts])

    def close(self) -> None:
        hosts, self._hosts = self._hosts, []
        for host in hosts:
            host.close()


#: The hosts the ``distributed-remote`` columns attach to.
SHARED_HOSTS = SharedWorkerHosts(2)
