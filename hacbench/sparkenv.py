"""Spark session lifetime for one benchmark run.

The session is the one ``jobs/_session.py`` builds, on ``local[4]`` with
a 2 GiB driver heap. Everything the JVM and its Python workers write goes
to the run's work directory, and :func:`stop` waits until the JVM and
every process it started have exited.
"""
from __future__ import annotations

import contextlib
import os
import shlex
import signal
import subprocess
import time
from pathlib import Path


def start(root: Path, work: Path):
    """Start the session; workers import the engine from ``root/src``."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(work)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master local[4] --driver-memory 2g",
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={work} -XX:-UsePerfData"),
            "pyspark-shell",
        ]
    )
    from jobs._session import get_spark

    return get_spark()


def drain(spark) -> None:
    """Wait until the status tracker has seen every finished job."""
    spark.sparkContext._jsc.sc().listenerBus().waitUntilEmpty()


def jvm_pid(spark) -> int:
    return spark.sparkContext._gateway.proc.pid


def _descendants(pid: int) -> set[int]:
    parent: dict[int, int] = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                parent[int(d.name)] = int((d / "stat").read_text().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    out, frontier = set(), {pid}
    while frontier:
        frontier = {p for p, pp in parent.items() if pp in frontier} - out
        out |= frontier
    return out


def stop(spark, timeout: float = 60.0) -> None:
    """Stop the session and wait for the JVM and its workers to exit."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    proc = gateway.proc
    children = _descendants(proc.pid)
    spark.stop()
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline, killed = time.monotonic() + timeout, False
    while children := {p for p in children if _alive(p)}:
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"Spark processes {sorted(children)} did not exit")
            for p in children:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(p, signal.SIGKILL)
            deadline, killed = time.monotonic() + 10.0, True
        time.sleep(0.1)


def _alive(pid: int) -> bool:
    """Running or not yet dead; a zombie has exited."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False
