"""Per-layer self time, measured from outside the program.

A traced child process calls :meth:`Tracer.install` before it builds
anything.  Each target in :data:`LAYER_TARGETS` (plus the active
strategy's two hooks, :func:`strategy_targets`) is replaced *where the
name is looked up* -- the class attribute for methods, the module
global for functions such as ``repro.engine.stream.receive_batch`` --
by a wrapper that counts calls and times them.  :meth:`Tracer.remove`
puts every original object back.  Nothing under ``src/`` knows about
this; timed (untraced) repeats never run wrapped.

Self time is inclusive time minus the time spent in wrapped children,
so the self times of all targets partition the time spent inside any
wrapped call and a cost is charged to exactly one layer.  Wrapper
bookkeeping outside the timed interval lands in the caller's self time;
``trace.overhead`` (traced vs untraced wall time) reports its size.

Every wrapped call is synchronous, so the stack discipline holds on the
serve child's event loop too: no wrapped call awaits.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["LAYER_TARGETS", "LAYERS", "Tracer", "resolve", "strategy_targets"]

#: Optional per-call unit counter: ``units(args, kwargs) -> number``.
Units = Optional[Callable[[tuple, dict], float]]


def _rows(args: tuple, kwargs: dict) -> float:
    # EngineStream.submit(self, contexts) / detect_batch(self, rows, ...)
    return len(args[1])


def _given_verdict(args: tuple, kwargs: dict) -> float:
    # ResolutionPipeline.add(self, ctx, now, detected=...): the batch
    # path passes a precomputed detect_batch verdict, else None.
    return 0.0 if kwargs.get("detected") is None else 1.0


#: ``(metric name, module, attribute path, units)`` for every layer call
#: the traced run wraps, in layer order: engine, runtime, core,
#: constraints, middleware, serve, ledger, obs.
LAYER_TARGETS: Tuple[Tuple[str, str, str, Units], ...] = (
    ("engine.submit", "repro.engine.stream", "EngineStream.submit", _rows),
    ("engine.route", "repro.engine.router", "ContextRouter.route", None),
    ("runtime.receive_batch", "repro.engine.stream", "receive_batch", None),
    ("runtime.add", "repro.runtime.pipeline", "ResolutionPipeline.add", _given_verdict),
    ("runtime.use", "repro.runtime.pipeline", "ResolutionPipeline.use", None),
    ("runtime.drain_due_uses", "repro.runtime.pipeline", "PipelineDriver.drain_due_uses", None),
    ("runtime.schedule", "repro.runtime.scheduler", "UseScheduler.schedule", None),
    ("runtime.expire_due", "repro.runtime.pipeline", "ResolutionPipeline.expire_due", None),
    ("core.handle_addition", "repro.core.resolver", "ResolutionService.handle_addition", None),
    ("core.handle_use", "repro.core.resolver", "ResolutionService.handle_use", None),
    ("constraints.detect", "repro.constraints.checker", "ConstraintChecker.detect", None),
    ("constraints.detect_batch", "repro.constraints.checker", "ConstraintChecker.detect_batch", _rows),
    ("middleware.publish", "repro.middleware.bus", "EventBus.publish", None),
    ("middleware.pool_add", "repro.middleware.pool", "ContextPool.add", None),
    ("middleware.pool_remove", "repro.middleware.pool", "ContextPool.remove", None),
    # The transport has no public per-message call; this is the
    # synchronous step that turns one WebSocket message into verdicts.
    ("serve.ws_message", "repro.serve.http", "IngestServer._submit_ws_message", None),
    ("serve.parse", "repro.serve.service", "context_from_record", None),
    ("serve.submit_record", "repro.serve.service", "IngestService.submit_record", None),
    ("serve.admit", "repro.serve.admission", "AdmissionController.admit", None),
    ("serve.sequence", "repro.serve.sequencer", "SourceSequencer.push", None),
    ("serve.batch_add", "repro.serve.batcher", "AdaptiveBatcher.add", None),
    ("ledger.observe", "repro.ledger.recorder", "LedgerRecorder.observe", None),
    ("ledger.append", "repro.ledger.writer", "LedgerWriter.append", None),
    ("ledger.flush", "repro.ledger.writer", "LedgerWriter.flush", None),
    ("obs.observe", "repro.obs.registry", "Histogram.observe", None),
    ("obs.inc", "repro.obs.registry", "Counter.inc", None),
)

#: Names of the strategy hooks, wrapped on the active strategy's class.
STRATEGY_LAYERS = ("core.strategy_added", "core.strategy_used")

#: Every wrapped layer call, in report order.
LAYERS: Tuple[str, ...] = tuple(t[0] for t in LAYER_TARGETS) + STRATEGY_LAYERS


def strategy_targets(strategy: str) -> List[Tuple[str, type, str, Units]]:
    """The active strategy's ``on_context_added`` / ``on_context_used``."""
    from repro.core.strategy import make_strategy

    cls = type(make_strategy(strategy))
    return [
        ("core.strategy_added", cls, "on_context_added", None),
        ("core.strategy_used", cls, "on_context_used", None),
    ]


def _owner(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose namespace defines ``attr``."""
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def resolve(where, path: str) -> Tuple[object, str]:
    """``(namespace, attribute)`` that a target is looked up in.

    ``where`` is a module name, with ``path`` dotted through it, or a
    class, whose method is patched on the class that defines it.
    """
    namespace = importlib.import_module(where) if isinstance(where, str) else where
    *parents, attr = path.split(".")
    for part in parents:
        namespace = getattr(namespace, part)
    if isinstance(namespace, type):
        namespace = _owner(namespace, attr)
    return namespace, attr


class Tracer:
    """Counts and times wrapped calls; computes per-layer self time."""

    def __init__(self) -> None:
        #: name -> [calls, self seconds, units]
        self.stats: Dict[str, List[float]] = {}
        # One child-time accumulator per open wrapped call; the bottom
        # slot collects the time of root calls.
        self._stack: List[float] = [0.0]
        #: (namespace, attribute, original) for every installed patch.
        self.patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, units: Units) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if units is not None:
                stat[2] += units(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - children

        return wrapper

    def install(
        self,
        targets: Sequence[Tuple[str, object, str, Units]],
    ) -> None:
        """Patch every target: ``(name, module-or-class, attribute path,
        units)``, looked up with :func:`resolve`."""
        for name, where, path, units in targets:
            namespace, attr = resolve(where, path)
            original = vars(namespace)[attr]
            setattr(namespace, attr, self._wrap(name, original, units))
            self.patches.append((namespace, attr, original))

    def remove(self) -> None:
        """Restore every original object, most recent patch first."""
        while self.patches:
            namespace, attr, original = self.patches.pop()
            setattr(namespace, attr, original)

    # -- reporting ----------------------------------------------------------

    def self_seconds(self) -> float:
        """Total self time across all wrapped calls."""
        return sum(stat[1] for stat in self.stats.values())

    def units(self, name: str) -> float:
        """The units counted for ``name`` (0 if it has no counter)."""
        stat = self.stats.get(name)
        return stat[2] if stat else 0.0

    def layer_metrics(self, contexts: int) -> Dict[str, float]:
        """``<layer>.calls_per_ctx`` and ``<layer>.self_us_per_ctx``."""
        metrics: Dict[str, float] = {}
        for name in LAYERS:
            calls, self_s, _ = self.stats.get(name, (0, 0.0, 0.0))
            metrics[f"{name}.calls_per_ctx"] = calls / contexts
            metrics[f"{name}.self_us_per_ctx"] = self_s / contexts * 1e6
        return metrics
