"""Spans around rotorarm's public functions, installed from outside the package.

`Tracer.install` replaces each named module function (in every rotorarm
module that holds a reference to it) and each named class method with a
wrapper that records one span: which layer, start, end and the span that was
open when it was called. Calls that raise are recorded too. Spans stay in
memory as flat integer arrays until `write` saves them; `layer_stats` turns
them into calls, inclusive time and self time per layer, where self time is
the span's duration minus the spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# the layer boundaries of the per-layer metrics, as module-relative names
LAYERS = (
    "allocation.sqp_allocate",
    "allocation.newton_step",
    "allocation.allocation_objective",
    "allocation.pinv_allocate",
    "simulation.run_flight",
    "simulation.sweep_setpoint",
    "simulation.PidController.update",
    "simulation.servo_update",
    "simulation.rigid_body_step",
    "spatial.orientation_error",
    "spatial.Quaternion.rotate",
    "efficiency.sweep_orientations",
    "efficiency.solve_hover",
    "geometry.force_map",
    "geometry.build_catalog",
    "cli.write_table",
)


class Tracer:
    package = "rotorarm"

    def __init__(self):
        self.names = list(LAYERS)  # later names come from span()
        self.layer = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.raised = array("b")
        self._stack = [-1]
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer_id):
        layer, start, end, parent, raised, stack = (
            self.layer, self.start, self.end, self.parent, self.raised, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            raised.append(1)
            stack.append(index)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised[index] = 0
                return result
            finally:
                end[index] = perf_counter_ns()
                start[index] = t0
                stack.pop()

        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of a layer that is not a program function."""
        if name not in self.names:
            self.names.append(name)
        return self._wrap(fn, self.names.index(name))(*args)

    # -- installing --------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == self.package or name.startswith(self.package + ".")]
        for layer_id, name in enumerate(self.names):
            module_name, *owner, attr = name.split(".")
            module = importlib.import_module(f"{self.package}.{module_name}")
            if owner:  # a method: replace it on its class
                cls = getattr(module, owner[0])
                original = cls.__dict__[attr]
                self._replace(cls, attr, original, self._wrap(original, layer_id))
                continue
            original = getattr(module, attr)
            traced = self._wrap(original, layer_id)
            for holder in modules:  # every module that imported the function by name
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, original, traced)
        return self

    def _replace(self, holder, key, original, traced):
        setattr(holder, key, traced)
        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def arrays(self):
        """Per span: layer, parent, inclusive ns and self ns.

        Spans of layers that are not program code (the host reference
        kernel) are taken out of the inclusive time of every span around
        them, and as children out of their parent's self time.
        """
        layer = np.frombuffer(self.layer, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64))
        child = np.zeros(len(layer), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        inclusive = duration.copy()
        for span in np.nonzero(layer >= len(LAYERS))[0]:
            up = parent[span]
            while up >= 0:
                inclusive[up] -= duration[span]
                up = parent[up]
        return layer, parent, inclusive, duration - child

    def layer_stats(self) -> dict:
        """{layer: (calls, inclusive ns, self ns, calls that raised)}."""
        layer, _, inclusive, self_ns = self.arrays()
        raised = np.frombuffer(self.raised, dtype=np.int8)
        stats = {}
        for layer_id, name in enumerate(self.names):
            mask = layer == layer_id
            stats[name] = (int(mask.sum()), int(inclusive[mask].sum()),
                           int(self_ns[mask].sum()), int(raised[mask].sum()))
        return stats

    def write(self, path) -> None:
        layer, parent, inclusive, self_ns = self.arrays()
        np.savez(path, names=np.array(self.names), layer=layer, parent=parent,
                 start_ns=np.frombuffer(self.start, dtype=np.int64), inclusive_ns=inclusive,
                 self_ns=self_ns, raised=np.frombuffer(self.raised, dtype=np.int8))
