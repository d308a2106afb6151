"""In-memory spans recorded around calls into the library.

Spans are recorded only from the benchmark's own code, at each call into
a public function of ``msb``; nothing inside the library is traced.  A
span keeps its name, start, end, parent span and the item it belongs to.
A span's self time is its duration minus the durations of its children,
which never overlap because everything runs on one thread.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


def direct(name, fn, *args, **kwargs):
    """Untraced call: the same signature as :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, item]
        self.item = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict:
        """``{item: {name: summed self time}}`` over all finished spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, parent, item) in enumerate(self.spans):
            out[item][name] += end - start - child[k]
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
