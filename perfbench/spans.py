"""Span recording around calls into lacuna's public API.

The benchmark calls every public function through ``call``.  The untraced
run uses ``Direct``, which only forwards the call.  The traced run uses
``Tracer``, which keeps one span per call in memory: name, parent span, start,
end, op id, sizes taken from the arguments and the return value, and the
error code when the call raised.  Spans are written out once, after the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


def error_code(exc: BaseException) -> str:
    """LacunaError.code when the exception has one, else its type name."""
    return getattr(exc, "code", None) or type(exc).__name__


class Direct:
    """Untraced calls: no bookkeeping beyond the call itself."""

    def call(self, name, fn, *args, variant=None, sizes=None, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, **sizes):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name, **sizes):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "start": time.perf_counter(),
            "end": None,
            "sizes": dict(sizes),
            "error": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except Exception as exc:
            rec["error"] = error_code(exc)
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, variant=None, sizes=None, **kwargs):
        """Run fn inside a span.  ``variant`` splits the timing of one
        function by mode (e.g. brute vs explicit scans); the sizes still
        count under ``name``."""
        with self.span(f"{name}.{variant}" if variant else name) as rec:
            rec["layer"] = name
            result = fn(*args, **kwargs)
        if sizes is not None:
            rec["sizes"].update(sizes(result))
        return result

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Summed seconds, self seconds, sizes, failures and error codes per
        span name.  Self time is a span's duration minus its children's; the
        calls of one thread never overlap, so that is the uncovered part."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        for rec in self.spans:
            name = rec["name"]
            dur = rec["end"] - rec["start"]
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += dur - child_time[rec["id"]]
            out[f"{name}.calls"] += 1
            layer = rec.get("layer", name)
            for key, value in rec["sizes"].items():
                out[f"{layer}.{key}"] += value
            if rec["error"] is not None:
                out[f"{layer}.failed"] += 1
                out[f"{layer.split('.')[0]}.errors.{rec['error']}"] += 1
        return dict(out)
