"""In-memory span recorder wrapped around the simulator's layer entry points.

The traced benchmark run patches the public entry points named in
``ENTRY_POINTS`` (class attributes and module-level functions under
``repro``) with thin wrappers that record one span per call: a name, a
start and end on the host clock, and the span open when the call began
(its parent).  Nothing under ``src/`` changes; the wrappers are installed
before the traced system is built, so call sites that bind a method once
at construction see the wrapper too, and are removed again afterwards.

Spans live in flat ``array`` columns (about 28 bytes each) and are written
out as one compressed ``.npz`` file when the run ends.  Self time is a
span's duration minus the durations of its direct children; on one thread
children nest strictly inside their parent, so that subtraction is exact.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (layer, module, class, attribute) for every entry point the traced run
#: wraps; class ``None`` is a module-level function and ``*`` any class.
#: A class attribute is patched on every matching class of the module that
#: defines it itself, so overriding subclasses are covered too.  Spans are
#: named "<layer>.<Class>.<attribute>" ("<layer>.<function>" for functions).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("workloads", "repro.workloads.bulk", "BulkGenerator", "columns"),
    ("workloads", "repro.workloads.generators", "SharedQueueRunner",
     "run_columnar"),
    ("workloads", "repro.workloads.generators", "SharedQueueRunner", "run"),
    ("workloads", "repro.workloads.generators", "WorkloadRunner", "step"),
    ("analysis", "repro.analysis.scenarios", None, "run_benign"),
    ("attacks", "repro.attacks.attacker", "Attacker", "run_rounds_columnar"),
    ("attacks", "repro.attacks.attacker", "Attacker", "run_rounds"),
    ("attacks", "repro.attacks.patterns", "AttackPlanner", "plan"),
    ("cpu", "repro.cpu.mmu", "Mmu", "plan_translation"),
    ("cpu", "repro.cpu.mmu", "Mmu", "translate_lines_bulk"),
    ("cpu", "repro.cpu.mmu", "Mmu", "translate_line"),
    ("cpu", "repro.cpu.cache", "SetAssociativeCache", "access"),
    ("cpu", "repro.cpu.cache", "SetAssociativeCache", "access_bulk"),
    ("cpu", "repro.cpu.core", "Core", "load"),
    ("cpu", "repro.cpu.core", "Core", "store"),
    ("mc", "repro.mc.controller", "MemoryController", "submit"),
    ("mc", "repro.mc.controller", "MemoryController", "submit_batch"),
    ("mc", "repro.mc.controller", "MemoryController", "submit_columnar"),
    ("mc", "repro.mc.controller", "MemoryController", "submit_columnar_run"),
    ("mc", "repro.mc.scheduler", "BatchScheduler", "issue"),
    ("mc", "repro.mc.scheduler", "BatchScheduler", "issue_columnar"),
    ("mc", "repro.mc.scheduler", "BatchScheduler", "issue_columnar_run"),
    ("mc", "repro.mc.address_map", "*", "line_to_ddr"),
    ("mc", "repro.mc.address_map", "*", "lines_to_ddr_bulk"),
    ("mc", "repro.mc.address_map", "*", "frame_addresses"),
    ("dram", "repro.dram.disturbance", "DisturbanceTracker", "on_activate"),
    ("dram", "repro.dram.disturbance", "DisturbanceTracker",
     "on_activate_bulk"),
    ("defenses", "repro.defenses.*", "*", "on_activate_bulk"),
    ("defenses", "repro.defenses.*", "*", "on_activate"),
    ("defenses", "repro.defenses.*", "*", "_on_interrupt"),
    ("hostos", "repro.hostos.allocator", "PageAllocator", "allocate"),
    ("sim", "repro.sim.system", None, "build_system"),
)

#: calls counted (not timed) — private helpers whose call counts are the
#: program's own notion of work done (frames the allocator examined)
COUNTED: Tuple[Tuple[str, str, str, str], ...] = (
    ("hostos", "repro.hostos.allocator", "PageAllocator", "_admissible"),
    ("hostos", "repro.hostos.allocator", "PageAllocator", "_allocate_one"),
)


def _classes_defining(module, class_name: str, attribute: str) -> List[type]:
    """Classes of ``module`` (all when ``class_name`` is ``*``) whose own
    ``__dict__`` defines ``attribute``."""
    found = []
    for value in vars(module).values():
        if not isinstance(value, type) or value.__module__ != module.__name__:
            continue
        if class_name != "*" and value.__name__ != class_name:
            continue
        if attribute in value.__dict__:
            found.append(value)
    return found


def _modules(pattern: str) -> List[object]:
    if pattern.endswith(".*"):
        prefix = pattern[:-1]
        return [
            module for name, module in sorted(sys.modules.items())
            if name.startswith(prefix) and module is not None
        ]
    return [importlib.import_module(pattern)]


class SpanRecorder:
    """Span columns plus the patch/unpatch of every entry point."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []
        #: systems built while installed (``build_system`` is collected)
        self.systems: List[object] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        return span

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a root span (a benchmark slice or set-up)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every entry point and counted helper."""
        import repro.defenses  # noqa: F401  (registers every defense module)
        import repro.sim  # noqa: F401

        for entries, timed in ((ENTRY_POINTS, True), (COUNTED, False)):
            for layer, module_name, class_name, attribute in entries:
                for module in _modules(module_name):
                    if class_name is None:
                        original = module.__dict__[attribute]
                        wrapped = self.wrap(f"{layer}.{attribute}", original)
                        if attribute == "build_system":
                            wrapped = self._collecting(wrapped)
                        # Rebind every module that imported the function
                        # by name, so ``from repro.sim import build_system``
                        # call sites record too.
                        for other in list(sys.modules.values()):
                            if (getattr(other, "__dict__", {}).get(attribute)
                                    is original):
                                self._set(other, attribute, wrapped)
                        continue
                    for cls in _classes_defining(module, class_name, attribute):
                        original = cls.__dict__[attribute]
                        name = f"{layer}.{cls.__name__}.{attribute}"
                        self._set(
                            cls, attribute,
                            self.wrap(name, original) if timed
                            else self.count(name, original),
                        )

    def _collecting(self, build: Callable) -> Callable:
        """Keep every system the traced region builds, for its counters."""
        systems = self.systems

        @functools.wraps(build)
        def collecting(*args, **kwargs):
            system = build(*args, **kwargs)
            systems.append(system)
            return system

        return collecting

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Analysis and output
    # ------------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32),
            "start": np.frombuffer(self.start_col, dtype=np.float64),
            "end": np.frombuffer(self.end_col, dtype=np.float64),
        }

    def summary(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``."""
        cols = self.columns()
        count = len(cols["name"])
        if count == 0:
            return {}
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=count,
        )
        self_time = duration - child_time
        names = len(self.names)
        calls = np.bincount(cols["name"], minlength=names)
        total = np.bincount(cols["name"], weights=duration, minlength=names)
        own = np.bincount(cols["name"], weights=self_time, minlength=names)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def calls_with_parent(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` whose direct parent span is ``parent_name``."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        cols = self.columns()
        parent = cols["parent"]
        linked = (cols["name"] == self._ids[name]) & (parent >= 0)
        parent_names = cols["name"][parent[linked]]
        return int(np.count_nonzero(parent_names == self._ids[parent_name]))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), **self.columns()
        )
