"""Pickle-free shared worker state for the multiprocess executor.

PR 7's overhead ledger measured where the parallel layer's negative
scaling comes from: every chunk re-pickles the corpus (item bags or the
dataset plus a trained model) into its payload, and queue wait dwarfs
compute. This module removes the corpus from the payload entirely:

* The parent *publishes* the heavy, read-only objects once under a
  deterministic token (:func:`publish_shared_state`). Publication puts
  them in a module-global registry that forked workers inherit, and
  moves an :class:`~repro.similarity.interning.InternedCorpus`'s big
  numpy arrays into ``multiprocessing.shared_memory`` segments so the
  per-worker cost is a page-table entry, not a copy.
* Chunk payloads shrink to ``(token, pairs)``; the worker resolves the
  token via :func:`shared_state` against its inherited registry.
* A *generation* counter (:func:`shared_generation`) increments on
  every publish/close, so the executor knows a warm worker pool forked
  before the current publication cannot see it and must be rebuilt.

Ownership (reprolint RL204): the :class:`SharedStateHandle` returned by
:func:`publish_shared_state` owns the segments — its ``close()`` both
``close()``\\ s and ``unlink()``\\ s every one, after rebinding the
corpus to private copies of the arrays so no live view dangles into a
freed buffer. Handles are context managers; the mining/classify callers
publish in a ``with`` block (or ``try/finally``) around dispatch.

Fork-only: the registry crosses the process boundary by inheritance,
so shared dispatch is supported exactly when the ``multiprocessing``
start method is ``fork`` (:func:`shared_state_supported`). On spawn
platforms callers fall back to the legacy pickled payloads — same
bytes out, just slower.

Workers treat the registry as frozen: work functions that read it are
``@shared_readonly`` and never write. Only the parent mutates it, in
publish/close pairs.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
from multiprocessing import shared_memory
from typing import Any, Dict, Iterator, List, Mapping

import numpy as np

from repro.contracts import deterministic
from repro.similarity.interning import InternedCorpus

__all__ = [
    "SharedStateHandle",
    "publish_shared_state",
    "shared_state",
    "shared_generation",
    "shared_state_supported",
]

#: token -> published objects; forked workers inherit a snapshot.
_REGISTRY: Dict[str, Mapping[str, Any]] = {}

#: Bumped on every publish/close so executors can detect stale pools.
_GENERATION: int = 0

#: Deterministic token source (reprolint forbids uuid/random here).
_TOKENS: Iterator[int] = itertools.count(1)


@deterministic
def shared_state_supported() -> bool:
    """True when forked workers inherit the parent's registry."""
    return multiprocessing.get_start_method(allow_none=False) == "fork"


def shared_generation() -> int:
    """The current registry generation (see module docstring)."""
    return _GENERATION


def shared_state(token: str) -> Mapping[str, Any]:
    """Resolve a published token (in the parent or a forked worker)."""
    try:
        return _REGISTRY[token]
    except KeyError:
        raise RuntimeError(
            f"shared state {token!r} is not published in this process; "
            "the worker pool predates the publication (stale generation) "
            "or the handle was closed before dispatch finished"
        ) from None


class SharedStateHandle:
    """Owner of one publication: registry entry + shm segments.

    ``segment_bytes`` is the total shared-memory footprint (0 when the
    published objects carried no interned corpus); ``baseline_bytes``
    is what one pickled copy of the published objects costs — the
    executor multiplies it by dispatched chunks to report
    ``bytes_not_pickled``.
    """

    def __init__(
        self,
        token: str,
        objects: Mapping[str, Any],
        segments: List[shared_memory.SharedMemory],
        corpora: List[InternedCorpus],
        baseline_bytes: int,
    ) -> None:
        self.token = token
        self.objects = objects
        self.baseline_bytes = baseline_bytes
        self.segment_bytes = sum(segment.size for segment in segments)
        self._segments = segments
        self._corpora = corpora
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unpublish and release every owned shm segment (idempotent)."""
        global _GENERATION
        if self._closed:
            return
        self._closed = True
        _REGISTRY.pop(self.token, None)
        _GENERATION += 1
        for corpus in self._corpora:
            # Rebind the corpus to private copies so its arrays outlive
            # the segments (and so close() below has no live exports).
            corpus.copy_arrays_private()
        for segment in self._segments:
            segment.close()
            segment.unlink()

    def __enter__(self) -> "SharedStateHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _allocate_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create one shm segment; ownership transfers to the caller's
    :class:`SharedStateHandle`, whose ``close()`` pairs ``close()`` +
    ``unlink()`` for every segment it owns (reprolint RL204)."""
    return shared_memory.SharedMemory(create=True, size=max(1, nbytes))


def _move_to_shared_memory(
    corpus: InternedCorpus,
) -> List[shared_memory.SharedMemory]:
    """Rehome the corpus's big arrays into shm segments it then reads."""
    segments: List[shared_memory.SharedMemory] = []
    views: Dict[str, np.ndarray] = {}
    arrays = corpus.export_arrays()
    for name, array in arrays.items():
        segment = _allocate_segment(array.nbytes)
        segments.append(segment)
        view: np.ndarray = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf
        )
        view[...] = array
        views[name] = view
    corpus.adopt_arrays(views)
    return segments


def publish_shared_state(**objects: Any) -> SharedStateHandle:
    """Publish read-only objects for pickle-free worker access.

    Any :class:`InternedCorpus` among ``objects`` has its arrays moved
    into shared memory; everything is registered under a fresh
    deterministic token. Returns the owning handle — close it (or use
    it as a context manager) once dispatch is done.

    Side effects (reviewed, parent-side only): creates OS shared-memory
    segments (owned by the returned handle) and mutates the process-
    local publication registry. The published *values* are frozen, and
    the token sequence is a deterministic process-local counter, so
    contracted callers stay byte-reproducible.
    """
    global _GENERATION
    token = f"shared:{next(_TOKENS)}"
    baseline_bytes = len(
        pickle.dumps(dict(objects), protocol=pickle.HIGHEST_PROTOCOL)
    )
    segments: List[shared_memory.SharedMemory] = []
    corpora: List[InternedCorpus] = []
    for value in objects.values():
        if isinstance(value, InternedCorpus):
            corpora.append(value)
            segments.extend(_move_to_shared_memory(value))
    _REGISTRY[token] = dict(objects)
    _GENERATION += 1
    return SharedStateHandle(token, objects, segments, corpora, baseline_bytes)

