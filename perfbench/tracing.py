"""Span tracing of the program's layers, installed from outside the program.

:func:`install` wraps the public entry point of every measured layer in the
already-imported ``repro`` modules.  A wrapped call records one span: its
layer name, start and end (``perf_counter``), the span that was open on the
same thread when it began (its parent), a request id shared by every span of
one request, and a small attribute (a result size or a table length) where a
per-layer count needs it.  Spans stay in memory until :meth:`Tracer.dump`.

A module-level function is replaced in *every* ``repro`` module that bound
it by name (``from ... import tokenize``), so callers see the wrapper no
matter how they imported it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Optional

# Span record layout (a tuple keeps the in-memory footprint small).
ID, PARENT, NAME, REQUEST, START, END, ATTR = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Set by the load generator around each operation it issues.
        self.request: Optional[int] = None
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers --------------------------------------------------------------------

    def _open(self) -> tuple[list, list]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if parent is not None:
            request = parent[1]
        elif self.request is not None:
            request = self.request
        else:
            request = -span_id
        frame = [span_id, request, parent[0] if parent is not None else 0]
        stack.append(frame)
        return stack, frame

    @staticmethod
    def _close(stack: list, frame: list) -> None:
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # a generator closed out of order
            stack.remove(frame)

    def wrap(self, name: str, fn: Callable, attr: Optional[Callable] = None) -> Callable:
        spans = self.spans

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args: Any, **kwargs: Any):
                stack, frame = self._open()
                start = time.perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._close(stack, frame)
                    spans.append((frame[0], frame[2], name, frame[1], start, end, None))

            return generator_wrapper

        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one loop thread, so they record root
            # spans without touching the thread's span stack.
            @functools.wraps(fn)
            async def coroutine_wrapper(*args: Any, **kwargs: Any):
                span_id = next(self._ids)
                start = time.perf_counter()
                result = await fn(*args, **kwargs)
                end = time.perf_counter()
                value = attr(args, result) if attr is not None else None
                spans.append((span_id, 0, name, -span_id, start, end, value))
                return result

            return coroutine_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            stack, frame = self._open()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._close(stack, frame)
                value = attr(args, result) if attr is not None else None
                spans.append((frame[0], frame[2], name, frame[1], start, end, value))

        return wrapper

    def patch_method(self, cls: type, method: str, name: str, attr: Optional[Callable] = None) -> None:
        original = cls.__dict__[method]
        self._restore.append((cls, method, original))
        setattr(cls, method, self.wrap(name, original, attr))

    def patch_function(self, module_name: str, function: str, name: str, attr: Optional[Callable] = None) -> None:
        original = getattr(sys.modules[module_name], function)
        wrapped = self.wrap(name, original, attr)
        for module_key, module in list(sys.modules.items()):
            if module_key.split(".")[0] != "repro" or module is None:
                continue
            if getattr(module, function, None) is original:
                self._restore.append((module, function, original))
                setattr(module, function, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _length(_args: tuple, result: Any) -> int:
    return len(result) if result is not None else 0


def _table_rows(args: tuple, _result: Any) -> tuple[str, int]:
    database, table_name = args[0], args[1]
    return (str(table_name), len(database.table(table_name)))


def _query_id(_args: tuple, result: Any) -> Optional[str]:
    return result.get("query_id") if isinstance(result, dict) else None


def install(tracer: Tracer) -> Tracer:
    """Wrap every measured entry point; ``repro`` must already be imported."""
    import repro.apps.cli  # noqa: F401 - binds compile/parse names the server uses
    from repro.core.coordinator import Coordinator
    from repro.core.durability import DurabilityManager, WriteAheadLog
    from repro.core.executor import JointExecutor
    from repro.core.matching import Matcher
    from repro.core.matchplan import GridProviderIndex
    from repro.relalg.engine import QueryEngine
    from repro.service.aio.server import AsyncCoordinationServer
    from repro.storage.backends import MemoryPendingStore, SQLitePendingStore
    from repro.storage.database import Database

    tracer.patch_function("repro.sqlparser.tokens", "tokenize", "sqlparser.tokenize")
    tracer.patch_function("repro.sqlparser.parser", "parse_statement", "sqlparser.parse")
    tracer.patch_function("repro.core.compiler", "compile_entangled", "compiler.compile")
    tracer.patch_function("repro.core.safety", "check", "safety.check")
    tracer.patch_method(Coordinator, "submit", "coordinator.submit")
    tracer.patch_method(Coordinator, "submit_many", "coordinator.submit_many")
    # Private, but the only place a data-change retry sweep is visible: the
    # inline coordinator's sweeps never reach the public retry_sweeps counter.
    tracer.patch_method(Coordinator, "_retry_pending_locked", "coordinator.retry_sweep")
    tracer.patch_method(Matcher, "find_group", "matching.find_group")
    tracer.patch_method(Matcher, "enumerate_groups", "matching.enumerate_groups")
    tracer.patch_method(GridProviderIndex, "candidates_compiled", "matchplan.candidates", _length)
    tracer.patch_method(QueryEngine, "run_plan", "relalg.run_plan")
    tracer.patch_method(QueryEngine, "execute", "relalg.execute")
    tracer.patch_method(Database, "update_where", "storage.update_where", _table_rows)
    tracer.patch_method(JointExecutor, "execute", "executor.execute")
    tracer.patch_method(WriteAheadLog, "append", "durability.append")
    tracer.patch_method(WriteAheadLog, "sync", "durability.sync")
    tracer.patch_method(WriteAheadLog, "_sync_locked", "durability.fsync")
    tracer.patch_function("repro.core.durability", "write_snapshot", "durability.snapshot")
    tracer.patch_method(DurabilityManager, "recover", "durability.recover")
    for backend in (SQLitePendingStore, MemoryPendingStore):
        tracer.patch_method(backend, "put", "backends.put")
        tracer.patch_method(backend, "get", "backends.get")
    tracer.patch_function("repro.service.remote.codec", "encode_frame", "codec.encode", _length)
    tracer.patch_function("repro.service.remote.codec", "decode_frame_body", "codec.decode")
    tracer.patch_method(AsyncCoordinationServer, "_op_submit", "aio.server_submit", _query_id)
    return tracer
