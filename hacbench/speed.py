"""Machine-speed reference for timings on a shared host.

On a host whose other tenants come and go, the same engine call can take
1x to 2x as long from one minute to the next, and process CPU time moves
with wall time. A fixed calibration unit slows down by about the same
factor, so timings are reported scaled to the speed at which one unit
takes ``REF_UNIT_S``:

    scaled = measured * REF_UNIT_S / (mean unit time measured next to it)

The unit is dict, float and heap work like the SubgraphHAC kernel's. It
runs in a probe process of its own, started from this file, so neither
the engine's heap nor its garbage shares the unit's interpreter.

The slowdown is mostly per vCPU: a single-threaded engine call can slow
by a third for half a minute while a unit on another vCPU does not.
So for a local engine the benchmark pins itself and the probe to one
vCPU, and the probe runs units right after each call, while the engine
is idle (:meth:`Probe.units`). A Spark call spreads over all vCPUs, so
there the probe runs a unit every half second during the call
(:meth:`Probe.sampling`). ``hacbench/unit_check.py`` measures how much
the engine's own work moves the unit, and ``SPREAD.md`` records it.
"""
from __future__ import annotations

import contextlib
import heapq
import os
import select
import statistics
import subprocess
import sys
import time

REF_UNIT_S = 0.025  # one unit on an uncontended core of a 4-vCPU 2.0 GHz VM


def unit() -> float:
    """Run one calibration unit; return its wall time in seconds."""
    t0 = time.perf_counter()
    d: dict[int, float] = {}
    h: list[tuple[float, int]] = []
    for i in range(15_000):
        k = (i * 7919) % 10_007
        d[k] = d.get(k, 0.0) + i / (k + 1.0)
        heapq.heappush(h, (d[k], k))
    while h:
        heapq.heappop(h)
    return time.perf_counter() - t0


def scale(seconds: float, unit_times: list[float]) -> float:
    """``seconds`` scaled to the reference speed."""
    return seconds * REF_UNIT_S / statistics.fmean(unit_times)


class Probe:
    """The probe process. Commands go one per line on its stdin:
    ``units N`` runs N units; ``sample P`` runs a unit at once and then
    every P seconds until the next line arrives. Either answers with one
    line of unit times."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def _send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def _reply(self) -> list[float]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe exited with status {self.proc.wait()}")
        return [float(x) for x in line.split()]

    def units(self, n: int) -> list[float]:
        self._send(f"units {n}")
        return self._reply()

    def start(self, period: float) -> None:
        """Start sampling: a unit at once, then one every ``period`` s."""
        self._send(f"sample {period}")

    def stop(self) -> list[float]:
        """Stop sampling; the unit times sampled, at least one."""
        self._send("stop")
        return self._reply()

    @contextlib.contextmanager
    def sampling(self, period: float):
        """Unit times sampled while the ``with`` body runs."""
        times: list[float] = []
        self.start(period)
        try:
            yield times
        finally:
            times += self.stop()

    def close(self) -> None:
        self.proc.stdin.close()  # the probe exits at end of input
        self.proc.wait()


def _serve() -> None:
    # Scheduled ahead of the engine's processes, so that a Spark call's
    # threads delay the unit as little as possible. Without the privilege
    # to raise priority the probe runs at the default.
    with contextlib.suppress(OSError):
        os.setpriority(os.PRIO_PROCESS, 0, -10)
    buf = b""

    def next_line() -> bytes | None:
        nonlocal buf
        while b"\n" not in buf:
            chunk = os.read(0, 4096)
            if not chunk:
                return None
            buf += chunk
        line, buf = buf.split(b"\n", 1)
        return line

    while (cmd := next_line()) is not None:
        if cmd.startswith(b"units"):
            times = [unit() for _ in range(int(cmd.split()[1]))]
        else:  # "sample P" until the next line, which only says stop
            period, times = float(cmd.split()[1]), [unit()]
            while b"\n" not in buf and not select.select([0], [], [], period)[0]:
                times.append(unit())
            next_line()
        print(" ".join(repr(t) for t in times), flush=True)


if __name__ == "__main__":
    _serve()
