"""Per-layer timing for the traced run, installed from outside ``src/``.

The traced run wraps calls into each layer's public functions and
records *self time*: a hook's elapsed time minus the time of hooks
nested inside it, so the layers partition the wall time they cover and
``service.other_ms`` (wall minus every layer) is what no hook saw.

A hooked name may disappear in a refactor of ``src/``.  Such a layer
then reports ``None`` and a warning on stderr instead of crashing the
run; the end-to-end run never installs hooks at all.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, module, attribute path) for every hooked call.  A layer with
#: several targets sums their self times.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("freac.kernel_ms", "repro.freac.ccctrl",
     "ComputeClusterController.run_batch"),
    ("freac.fill_ms", "repro.freac.ccctrl",
     "ComputeClusterController.fill_scratchpad"),
    ("freac.setup_ms", "repro.freac.session", "ExecutionSession.__enter__"),
    ("freac.teardown_ms", "repro.freac.session", "ExecutionSession.close"),
    ("freac.program_ms", "repro.freac.session", "ExecutionSession.program"),
    # Self time of fill + run + readback: the readback and comparison
    # against the reference is what remains once fill and kernel are
    # nested hooks.
    ("freac.verify_ms", "repro.freac.runner", "execute_on_controllers"),
    ("service.elastic_ms", "repro.service.elastic", "ElasticPartitioner.lease"),
    ("service.elastic_ms", "repro.service.elastic",
     "ElasticPartitioner.checkin"),
    ("service.elastic_ms", "repro.service.elastic",
     "ElasticPartitioner.maybe_reclaim"),
    ("service.admit_ms", "repro.service.programs", "ProgramCache.lookup"),
    ("circuits.techmap_ms", "repro.service.programs", "mapped_pe"),
    ("folding.schedule_ms", "repro.service.programs", "list_schedule"),
    ("analysis.lint_ms", "repro.service.programs", "analyze_netlist"),
    ("analysis.lint_ms", "repro.service.programs", "analyze_schedule"),
    ("analysis.lint_ms", "repro.service.programs", "analyze_dataflow"),
)

#: Every layer the hooks feed, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))


def _resolve(module: str, path: str) -> Tuple[object, str, Callable]:
    """(owner, attribute name, current value) for a dotted hook target."""
    owner: object = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, getattr(owner, name)


class Tracer:
    """Self-time accumulator over the hooks in :data:`HOOKS`.

    Single-threaded by design: the traced workloads drive a synchronous
    service from one thread, so one stack of child-time accumulators
    is enough to subtract nested hooks.
    """

    def __init__(self, hooks: Tuple[Tuple[str, str, str], ...] = HOOKS
                 ) -> None:
        self.hooks = hooks
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Layers with at least one target that could not be resolved.
        self.missing: Dict[str, str] = {}
        self._stack: List[float] = []
        self._targets: List[Tuple[str, object, str, Callable]] = []
        for layer, module, path in hooks:
            try:
                owner, name, original = _resolve(module, path)
            except (ImportError, AttributeError) as exc:
                self.missing.setdefault(layer, f"{module}.{path}: {exc}")
                continue
            self._targets.append((layer, owner, name, original))
        for layer, reason in self.missing.items():
            print(f"bench: warning: {layer} not measured ({reason})",
                  file=sys.stderr)

    def _wrap(self, layer: str, original: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def timed(*args, **kwargs):
            start = time.perf_counter()
            stack.append(0.0)
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return timed

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every resolvable target for the ``with`` body only."""
        for layer, owner, name, original in self._targets:
            setattr(owner, name, self._wrap(layer, original))
        try:
            yield self
        finally:
            for _, owner, name, original in reversed(self._targets):
                setattr(owner, name, original)

    def layer_ms(self, layer: str, ops: int) -> Optional[float]:
        """Mean self time per op, in ms; ``None`` if the layer lost a hook."""
        if layer in self.missing:
            return None
        return self.self_s.get(layer, 0.0) * 1e3 / max(ops, 1)
