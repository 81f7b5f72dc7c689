"""Materialization barrier for iterative DataFrame algorithms.

``Dataset.localCheckpoint`` truncates *lineage* but propagates the
original plan's statistics (``originStats``) through the checkpoint, so
in a round-based algorithm the size-in-bytes BigInts compound
multiplicatively: the bit-count doubles every round and after a handful
of rounds Catalyst's join-selection grinds through million-bit BigInt
multiplications (observed: 80s of pure driver CPU per query by round 2).

A parquet round-trip is a true barrier: the re-read plan's leaf
statistics are the real file sizes, constant and small. This is also
what the paper's production setting does — each MapReduce round of
Flume materializes its output — so the barrier is faithful to the
system being reproduced, not just a workaround.

An engine call writes its barriers inside :func:`run_dir`, which
removes them when the call returns or raises; a barrier that a later
one supersedes can be removed sooner with :func:`release`. The Spark
engines with rounds (TeraHAC, SCC) run inside :func:`engine_run`, which
also sets their shuffle partition count.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import tempfile
import urllib.parse

from pyspark.sql import DataFrame, SparkSession

# Iterative graph rounds on one box are scheduler-latency-bound, so the
# round engines shuffle into few partitions (4 and 8 cost the same jobs
# on a 120-vertex graph: 78 a TeraHAC call, 111 a 5-round SCC call, when
# a barrier's read-back still inferred its schema).
SHUFFLE_PARTITIONS = 8

_counter = itertools.count()
_root: str | None = None
_open: list[str] = []  # run directories, innermost last


def _ckpt_root(spark: SparkSession) -> str:
    global _root
    if _root is None:
        base = os.environ.get("REPRO_CKPT_DIR", tempfile.gettempdir())
        _root = os.path.join(
            base, f"repro-ckpt-{spark.sparkContext.applicationId}"
        )
    return _root


@contextlib.contextmanager
def run_dir(spark: SparkSession):
    """A fresh directory that every :func:`materialize` in the block (the
    innermost block, if they nest) writes under; removed on exit, by
    return or raise, so nothing read from it may outlive the block. The
    outermost block also removes the checkpoint root if that leaves it
    empty."""
    path = os.path.join(_open[-1] if _open else _ckpt_root(spark), f"run-{next(_counter)}")
    _open.append(path)
    try:
        yield
    finally:
        _open.pop()
        shutil.rmtree(path, ignore_errors=True)
        if not _open:
            with contextlib.suppress(OSError):  # not empty: kept
                os.rmdir(_ckpt_root(spark))


@contextlib.contextmanager
def engine_run(spark: SparkSession):
    """A :func:`run_dir` block with ``spark.sql.shuffle.partitions`` set
    to :data:`SHUFFLE_PARTITIONS`; the session's value is restored on
    exit, by return or raise."""
    key = "spark.sql.shuffle.partitions"
    prev = spark.conf.get(key)
    spark.conf.set(key, str(SHUFFLE_PARTITIONS))
    try:
        with run_dir(spark):
            yield
    finally:
        spark.conf.set(key, prev)


def materialize(df: DataFrame, tag: str = "step") -> DataFrame:
    """Write ``df`` to parquet and read it back.

    Returns a DataFrame whose plan is a plain parquet scan: lineage cut,
    statistics reset to actual file sizes. Use at every round boundary of
    an iterative algorithm (TeraHAC, SCC, long CC runs). Outside a
    :func:`run_dir` block the file is never removed.
    """
    spark = df.sparkSession
    path = os.path.join(_open[-1] if _open else _ckpt_root(spark), f"{tag}-{next(_counter)}")
    df.write.mode("overwrite").parquet(path)
    # With the schema given, the read runs no schema-inference job.
    return spark.read.schema(df.schema).parquet(path)


def release(*dfs: DataFrame) -> None:
    """Remove the barriers that ``dfs`` were read from (each a
    :func:`materialize` result), so a long run keeps only the rounds it
    still reads. Any plan that still reads one of them fails; only
    directories inside an open :func:`run_dir` are removed. No Spark job.
    """
    dirs = {
        os.path.dirname(urllib.parse.unquote(urllib.parse.urlparse(f).path))
        for df in dfs
        for f in df.inputFiles()
    }
    for d in dirs:
        if any(d.startswith(r + os.sep) for r in _open):
            shutil.rmtree(d, ignore_errors=True)
