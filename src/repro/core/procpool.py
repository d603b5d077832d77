"""A picklable chunked process-pool driver for CPU-bound batch stages.

The thread-based batch engine (:mod:`repro.core.parallel`) wins on the
I/O-shaped stages, but pure-Python CPU work — ensemble scoring over raw
count math, the similarity DP — serializes on the GIL.  This module
drives such stages across processes:

* ``job`` must be a picklable module-level function taking
  ``(payload, chunk)`` and returning one result per chunk item;
* ``payload`` (e.g. a frozen scorer holding model weights) is shipped
  once per worker via the pool initializer, not once per chunk;
* items are split into contiguous chunks and results are merged back in
  submission order, so the output is positionally identical to
  ``job(payload, items)`` whenever ``job`` is elementwise.

Kept dependency-free (stdlib only) so any layer can import it without
touching the :mod:`repro.core` package cycle.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["map_chunked"]

Item = TypeVar("Item")
Result = TypeVar("Result")

# Per-worker payload slot, filled by the pool initializer so the (often
# large) payload crosses the process boundary once instead of per task.
_PAYLOAD: Any = None


def _init_worker(payload: Any) -> None:
    global _PAYLOAD
    _PAYLOAD = payload


def _timed_job(
    job: Callable[[Any, Sequence[Item]], List[Result]],
    payload: Any,
    chunk: Sequence[Item],
) -> Tuple[List[Result], float, int, str]:
    """``job(payload, chunk)`` plus where and how long it ran."""
    start = time.perf_counter()
    results = job(payload, chunk)
    return (
        results,
        time.perf_counter() - start,
        os.getpid(),
        multiprocessing.current_process().name,
    )


def _run_chunk(
    job: Callable[[Any, Sequence[Item]], List[Result]],
    chunk: Sequence[Item],
) -> Tuple[List[Result], float, int, str]:
    return _timed_job(job, _PAYLOAD, chunk)


def map_chunked(
    job: Callable[[Any, Sequence[Item]], List[Result]],
    payload: Any,
    items: Sequence[Item],
    workers: int,
    chunk_size: Optional[int] = None,
    chunk_times: Optional[List[Tuple[int, int, float, int, str]]] = None,
) -> List[Result]:
    """Run ``job(payload, chunk)`` over ``items`` on a process pool.

    Returns the concatenated per-chunk results in item order.  With
    ``workers <= 1`` (or a single-item batch) the job runs in-process —
    same code path as the workers, so results cannot depend on where
    they were computed.

    Every chunk is clocked where it runs.  When ``chunk_times`` is a
    list, one ``(chunk, items, seconds, pid, process name)`` tuple per
    chunk is appended to it in chunk order, for the caller to account
    (the batch engine writes each as a ledger span).
    """
    items = list(items)
    if not items:
        return []
    workers = max(1, min(int(workers), len(items)))
    if workers == 1:
        chunks = [items]
        outcomes = [_timed_job(job, payload, items)]
    else:
        if chunk_size is None:
            chunk_size = -(-len(items) // workers)  # ceil division
        chunks = [
            items[start:start + chunk_size]
            for start in range(0, len(items), chunk_size)
        ]
        with ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            initializer=_init_worker,
            initargs=(payload,),
        ) as pool:
            outcomes = list(pool.map(_run_chunk, repeat(job), chunks))
    merged: List[Result] = []
    for index, (chunk, (part, seconds, pid, process)) in enumerate(
        zip(chunks, outcomes)
    ):
        merged.extend(part)
        if chunk_times is not None:
            chunk_times.append((index, len(chunk), seconds, pid, process))
    return merged
