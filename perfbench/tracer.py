"""In-memory span recorder that wraps the program's public entry points.

The benchmark never edits the program: a :class:`Tracer` replaces
methods and module functions with wrappers for the duration of a traced
run and puts the originals back afterwards.  Every call through a
wrapper becomes one span ``[name, start, end, parent, qid, attrs]``:

* ``start`` / ``end`` are :func:`time.perf_counter` readings (the
  system-wide monotonic clock on Linux, so spans written by the server
  process line up with the client's);
* ``parent`` is the index of the enclosing span in the same process
  (a :class:`contextvars.ContextVar`, so it follows asyncio tasks), or
  ``-1``;
* ``qid`` is the query or request id the span works for, inherited
  from the parent when the wrapper cannot name one;
* ``attrs`` holds counts measured at the same boundary (HITs in a
  publish, bytes in a frame, slots in use after a step), or ``None``.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON
lines at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable

AttrFn = Callable[..., "dict[str, Any] | None"]
QidFn = Callable[[tuple, dict], Any]


class Tracer:
    """Records spans for wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._current: ContextVar[int] = ContextVar("perfbench_span", default=-1)
        self._qid: ContextVar[Any] = ContextVar("perfbench_qid", default=None)
        self._patches: list[tuple[Any, str, Any]] = []
        #: Wrappers pass straight through while this is False.
        self.enabled = True

    @contextlib.contextmanager
    def paused(self):
        """Run a block (an outcome check, a reference run) unrecorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, qid: Any) -> tuple[list[Any], Any, Any]:
        if qid is None:
            qid = self._qid.get()
        record = [name, time.perf_counter(), 0.0, self._current.get(), qid, None]
        self.spans.append(record)
        token = self._current.set(len(self.spans) - 1)
        qtoken = self._qid.set(qid)
        return record, token, qtoken

    def _close(self, record: list[Any], token: Any, qtoken: Any) -> None:
        record[2] = time.perf_counter()
        self._qid.reset(qtoken)
        self._current.reset(token)

    def count(self, name: str, qid: Any = None, **attrs: Any) -> None:
        """A zero-length span that carries counts read at a boundary
        (client latencies, load-generator figures, per-shard steps)."""
        now = time.perf_counter()
        if qid is None:
            qid = self._qid.get()
        self.spans.append([name, now, now, self._current.get(), qid, attrs])

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        attrs: AttrFn | None = None,
        qid: QidFn | None = None,
        before: Callable[[tuple, dict], Any] | None = None,
        reentrant: bool = True,
    ) -> None:
        """Replace ``owner.attr`` (a class's method or a module's
        function) with a span-recording wrapper until :meth:`restore`.

        ``attrs(args, kwargs, result)`` returns the span's counts; with
        ``before``, its reading taken just before the call is passed as a
        fourth argument (for deltas such as bytes written).
        ``reentrant=False`` records only the outermost call when the
        function recurses through its own public name (the codec does).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def nested() -> bool:
            index = tracer._current.get()
            return index >= 0 and tracer.spans[index][0] == name

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                pre = None if before is None else before(args, kwargs)
                record, token, qtoken = tracer._open(
                    name, None if qid is None else qid(args, kwargs)
                )
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(record, token, qtoken)
                if attrs is not None:
                    extra = () if before is None else (pre,)
                    record[5] = attrs(args, kwargs, result, *extra)
                return result

            wrapper: Any = async_wrapper
        else:

            @functools.wraps(original)
            def sync_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled or (not reentrant and nested()):
                    return original(*args, **kwargs)
                pre = None if before is None else before(args, kwargs)
                record, token, qtoken = tracer._open(
                    name, None if qid is None else qid(args, kwargs)
                )
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(record, token, qtoken)
                if attrs is not None:
                    extra = () if before is None else (pre,)
                    record[5] = attrs(args, kwargs, result, *extra)
                return result

            wrapper = sync_wrapper
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> Path:
        """Dump the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
        return path


def read_spans(paths: list[Path]) -> list[list[Any]]:
    """Load span files written by :meth:`Tracer.write` (one per traced
    process) into one list, rebasing each file's parent indexes."""
    spans: list[list[Any]] = []
    for path in paths:
        offset = len(spans)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                if span[3] >= 0:
                    span[3] += offset
                spans.append(span)
    return spans
