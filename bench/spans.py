"""Span tracer that instruments the `sgim` package from outside.

`instrument()` replaces every public function of every `sgim` module
(except `cli`, whose commands the benchmark times itself as `cli.<command>`
spans) with a wrapper that records a span, and patches the wrapper into
every module that binds the function by name, so `from .data import
sample_weak_pair` in `encoders` is traced too. Autodiff ops are also timed
backward: the `_vjp` of each node an op returns is wrapped, giving
`autodiff.<op>.bwd` spans under `autodiff.backward`. `Node.__init__` is
counted, not timed, as `autodiff.nodes`.

Spans keep name, start, end, parent and request id. They stay in memory
and are written when the benchmark ends. Only the first MAX_SPANS are kept,
so the dump stays within a few tens of MB: it covers the first request or
two of `interactive` and part of the first `direction-stats` of `sweep`.
The header line of the dump says how many spans were dropped.
Per-name totals are kept for every span, stored or not: calls, self time
(duration minus the time its child spans cover) and, for the persistence
functions, the bytes of the file or directory read or written. Calls and
bytes are also kept per request, so two runs can be compared exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from pathlib import Path

SKIP_MODULES = ("sgim.cli",)
MAX_SPANS = 100_000

# functions whose first argument is a file (or a dataset directory) whose
# size is counted in `<name>.bytes`; `save` sizes are read after the call
_BYTES = {
    "checkpoint.save_checkpoint": "after",
    "checkpoint.load_checkpoint": "before",
    "data.save_dataset": "after",
    "data.load_dataset": "before",
    "pgm.write_pgm": "after",
}


def _size(path) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.iterdir() if f.is_file())
    return p.stat().st_size if p.exists() else 0


class Tracer:
    """Collects spans and per-name totals for one benchmark run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.dropped = 0
        self.totals: dict[str, list[float]] = {}   # name -> [calls, self_s, bytes]
        # request id -> {name: calls, name + ".bytes": bytes}, exact counts
        # that two runs of one seed must repeat
        self.by_request: dict[int, dict[str, int]] = {}
        self.request = 0
        # open spans: [name, start, child_s, index, parent, request]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str) -> list:
        """Opens a span; its slot in `spans` is taken now, so children
        (which close first) can name it as their parent."""
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        frame = [name, time.perf_counter(), 0.0, index, parent, self.request]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, index, parent, request = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0]
        tot[0] += 1
        tot[1] += duration - child_s
        counts = self.by_request.setdefault(request, {})
        counts[name] = counts.get(name, 0) + 1
        if index >= 0:
            self.spans[index] = (name, start - self.t0, end - self.t0, parent,
                                 request)

    def add_bytes(self, frame: list, nbytes: int) -> None:
        name, request = frame[0], frame[5]
        self.totals[name][2] += nbytes
        key = name + ".bytes"
        counts = self.by_request[request]
        counts[key] = counts.get(key, 0) + nbytes

    # -- instrumentation --------------------------------------------------

    def _wrap(self, fn, name: str):
        mode = _BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _size(args[0]) if mode == "before" else 0
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                # sizes are read outside the span, so stat() is not charged
                # to the layer
                self.exit(frame)
                if mode is not None:
                    self.add_bytes(frame, before if mode == "before"
                                   else _size(args[0]))
        return traced

    def _wrap_op(self, fn, name: str):
        """Forward span plus a backward span on the returned node's vjp."""
        bwd = name + ".bwd"

        def timed_vjp(vjp):
            def traced_vjp(g):
                frame = self.enter(bwd)
                try:
                    return vjp(g)
                finally:
                    self.exit(frame)
            return traced_vjp

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                node = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if node._vjp is not None:
                node._vjp = timed_vjp(node._vjp)
            return node
        return traced

    def instrument(self) -> None:
        """Wrap the public functions of every `sgim` module in place."""
        import sgim
        from sgim import autodiff

        modules = [importlib.import_module(f"sgim.{m.name}")
                   for m in pkgutil.iter_modules(sgim.__path__)]
        wrappers: dict[int, object] = {}
        for mod in modules:
            if mod.__name__ in SKIP_MODULES:
                continue
            short = mod.__name__.split(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                returns_node = (mod is autodiff and
                                inspect.signature(fn).return_annotation
                                in ("Node", autodiff.Node))
                wrappers[id(fn)] = (self._wrap_op(fn, name) if returns_node
                                    else self._wrap(fn, name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

        node_init = autodiff.Node.__init__

        def counting_init(node, *args, **kwargs):
            counts = self.by_request.setdefault(self.request, {})
            counts["autodiff.nodes"] = counts.get("autodiff.nodes", 0) + 1
            node_init(node, *args, **kwargs)

        self._undo.append((autodiff.Node, "__init__", node_init))
        autodiff.Node.__init__ = counting_init

    def uninstrument(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def table(self) -> list[dict]:
        """Per-name totals, largest self time first."""
        rows = [{"name": n, "calls": int(c), "self_s": s, "bytes": int(b)}
                for n, (c, s, b) in self.totals.items()]
        rows.sort(key=lambda r: -r["self_s"])
        return rows

    def write(self, path: Path) -> None:
        """Span dump as JSON lines: one header, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped,
                                 "fields": ["name", "start_s", "end_s",
                                            "parent", "request"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        os.replace(tmp, path)
