"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is ``(name, start_ns, end_ns, parent)``.  The benchmark opens the
structural ones itself (session, client, server session) and installs
wrappers around the layer entry points that execute in *this* process:
everything on ``sim_core``; hub 0, the frontend thread and their codec calls
on the net workloads.  Forked nodes and data hubs inherit the wrappers but
not the tracer (it switches itself off in the child): spans inside those
processes are ROADMAP item 5's job.

Self time of a span is its duration minus the part its children cover (the
union of their intervals, clipped to the span).  The residual row is the
root's duration minus every descendant's self time, so the rows always add
up to the root span.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from array import array
from typing import Any, Callable, Iterator

_now = time.perf_counter_ns

#: raw spans of each name the summary keeps for eyeballing nesting.
SAMPLE_PER_NAME = 200

#: The tracer forked children must switch off (set by :meth:`Tracer.install`).
_active: "Tracer | None" = None


def _disable_in_child() -> None:
    if _active is not None:
        _active.enabled = False


os.register_at_fork(after_in_child=_disable_in_child)


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name_id: int, parent: int | None = None) -> int:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        with self._lock:  # keeps array order == start order across threads
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.end.append(0)
            self.start.append(_now())
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = _now()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[int]:
        index = self.begin(self.name_id(name), parent)
        try:
            yield index
        finally:
            self.finish(index)

    # -- wrappers ----------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(index)

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Span every resumption of a generator, not the consumer's time
        between them (``FrameDecoder.feed`` yields into the frame handler)."""
        name_id = self.name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            if not self.enabled:
                yield from fn(*args, **kwargs)
                return
            it = fn(*args, **kwargs)
            while True:
                index = self.begin(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.finish(index)
                yield item

        return traced

    def _patch(self, owner: Any, attr: str, name: str, generator: bool = False) -> None:
        """Wrap ``owner.attr``.  An attribute the owner only inherits is
        shadowed and later deleted, so the base class stays untouched."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        wrap = self._wrap_generator if generator else self._wrap
        setattr(owner, attr, wrap(name, original))
        if own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def install(self) -> None:
        """Wrap the layer entry points (undone by :meth:`uninstall`)."""
        global _active
        import repro.frontend.socket as frontend_socket
        import repro.net.cluster as net_cluster
        from repro.core.dex import DexConsensus
        from repro.durable.wal import WriteAheadLog
        from repro.frontend.api import Frontend
        from repro.harness import Deployment
        from repro.net.wire import FrameDecoder
        from repro.shard.service import ShardedService, ShardNode

        _active = self
        self._patch(Frontend, "submit", "frontend.submit")
        self._patch(Frontend, "tick", "frontend.tick")
        self._patch(Frontend, "run", "frontend.run")
        self._patch(ShardedService, "run_stream", "shard.run_stream")
        self._patch(Deployment, "run_net", "net.run_net")
        self._patch(Deployment, "run_sim", "sim.run_sim")
        self._patch(ShardNode, "on_message", "shard.on_message")
        self._patch(DexConsensus, "on_message", "core.dex_on_message")
        self._patch(WriteAheadLog, "append", "durable.wal_append")
        self._patch(FrameDecoder, "feed", "codec.decode_feed", generator=True)
        # ``encode_frame_into`` is imported by name, so each importing
        # module holds its own reference.
        for module in (net_cluster, frontend_socket):
            self._patch(module, "encode_frame_into", "codec.encode_frame")

    def uninstall(self) -> None:
        global _active
        while self._undo:
            self._undo.pop()()
        _active = None

    # -- accounting --------------------------------------------------------------------

    def summary(self, root: int) -> dict[str, Any]:
        """Per-name rows (count, total, self) of ``root``'s descendants, the
        residual, and a capped sample of the raw spans."""
        count = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = [0] * count
        cover_end = [0] * count
        inside = bytearray(count)  # 1 = in root's subtree
        inside[root] = 1
        for i in range(root + 1, count):
            p = parent[i]
            if p < 0 or not inside[p]:
                continue
            inside[i] = 1
            lo = max(start[i], start[p], cover_end[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                cover_end[p] = hi
        rows: dict[int, list[int]] = {}  # name id -> [count, total ns, self ns]
        samples: list[dict[str, Any]] = []
        t0 = start[root]
        for i in range(root + 1, count):
            if not inside[i]:
                continue
            duration = end[i] - start[i]
            row = rows.setdefault(self.name[i], [0, 0, 0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered[i]
            if row[0] <= SAMPLE_PER_NAME:
                samples.append(
                    {
                        "id": i,
                        "parent": parent[i],
                        "name": self.names[self.name[i]],
                        "start_us": (start[i] - t0) / 1e3,
                        "end_us": (end[i] - t0) / 1e3,
                    }
                )
        root_ns = end[root] - start[root]
        return {
            "root": self.names[self.name[root]],
            "root_id": root,
            "root_s": root_ns / 1e9,
            "spans": 1 + sum(row[0] for row in rows.values()),
            "rows": [
                {
                    "name": self.names[name_id],
                    "count": n,
                    "total_s": total / 1e9,
                    "self_s": own / 1e9,
                }
                for name_id, (n, total, own) in sorted(
                    rows.items(), key=lambda item: -item[1][2]
                )
            ],
            "residual_s": (root_ns - sum(row[2] for row in rows.values())) / 1e9,
            "sample": samples,
        }
