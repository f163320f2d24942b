"""Adversarial scheduling: seeded permutation of chunk execution order.

``MultiprocessExecutor`` promises determinism *by merge, not by
schedule*: whatever order the OS completes chunks in, submission-order
collection plus order-independent merges make the output byte-identical
across worker counts. The OS scheduler, however, is a lazy adversary —
on an idle CI box chunks mostly finish in submission order, so a merge
that silently depends on completion order can pass the parity tests for
months.

:class:`AdversarialScheduleExecutor` is the malicious scheduler the
real one refuses to be. It executes every chunk **in-process** but in a
seeded pseudo-random permutation of submission order — deterministic
per ``(schedule_seed, dispatch index)``, so a failure replays exactly —
while still honoring the ``map_chunks`` contract of returning results
in submission order. Any state the work functions share in-process is
therefore exercised under a hostile interleaving, and the schedule
sanitizer (``repro sanitize --schedule``) asserts ranked output stays
byte-identical across seeds × worker counts. The permutation is logged
per dispatch (:attr:`schedule_log`) so tests can prove the adversary
actually reordered something.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from repro.contracts import deterministic
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.executor import ChunkFunc, Executor

__all__ = ["AdversarialScheduleExecutor"]

#: Mixes the per-dispatch index into the schedule seed; any odd
#: constant works, a large prime keeps neighboring seeds uncorrelated.
_DISPATCH_STRIDE = 1_000_003


class AdversarialScheduleExecutor(Executor):
    """In-process executor running chunks in a seeded hostile order.

    ``workers`` only shapes the chunk *plan* (``plan_chunks``), exactly
    as it does for the real pool — so sweeping worker counts under a
    fixed corpus varies chunk boundaries while the seed varies
    execution order, covering both axes the OS controls in production.
    """

    name = "adversarial-schedule"

    #: Chunks run in-process, where the shared-state registry is simply
    #: the parent's — so the hostile schedule also exercises the
    #: pickle-free dispatch path the real pool uses.
    shared_state = True

    def __init__(
        self,
        workers: int,
        schedule_seed: int,
        chunk_size: Optional[int] = None,
    ) -> None:
        super().__init__(workers, chunk_size)
        self.schedule_seed = schedule_seed
        #: One entry per dispatch: the execution-order permutation used.
        self.schedule_log: List[List[int]] = []

    def to_echo(self) -> Dict[str, Any]:
        """Report echo with the schedule seed, so a sanitize run's
        report says which hostile permutation it survived. Echoes are
        measurement output only — the seed never reaches configs or
        checkpoint fingerprints (reprolint RL205), and
        ``profile_echo()`` stays ``{}``: an in-process executor has no
        pickle/queue overhead to attribute.
        """
        echo = super().to_echo()
        echo["schedule_seed"] = self.schedule_seed
        return echo

    @deterministic
    def map_chunks(
        self,
        func: ChunkFunc,
        payloads: Sequence[Any],
        tracer: Optional[Tracer] = None,
        label: str = "parallel.map",
        shared_bytes: Optional[int] = None,
    ) -> List[Any]:
        tracer = tracer if tracer is not None else NULL_TRACER
        work = list(payloads)
        call_index = self._count_dispatch(work, shared_bytes)
        self.stats.inline_chunks += len(work)
        if not work:
            self.schedule_log.append([])
            return []
        order = list(range(len(work)))
        # Seeded per dispatch: the same (seed, dispatch) always yields
        # the same permutation, so a divergence replays exactly.
        rng = random.Random(
            self.schedule_seed * _DISPATCH_STRIDE + call_index
        )
        rng.shuffle(order)
        self.schedule_log.append(list(order))
        results = {}
        with tracer.span(label, executor=self.name, chunks=len(work)):
            for index in order:
                results[index] = func(work[index])
        return [results[index] for index in range(len(work))]
