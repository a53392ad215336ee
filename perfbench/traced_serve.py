"""``repro serve`` with a span recorded around calls into each layer.

Usage::

    PYTHONPATH=src python perfbench/traced_serve.py SPANS.json serve WG ...

The public entry points of each layer are wrapped where their callers
look them up (a name bound with ``from x import y`` is patched in the
calling module), then the CLI's ``serve`` runs unchanged.  Each span
(id, parent, request id, name, start, end, value) is kept in memory in
flat integer columns; a few spans also carry a tag or an extra value.
At shutdown the columns are written to ``SPANS.bin`` and everything
else to ``SPANS.json``, together with the index memory of the live
engine.  :mod:`repro.obs` stays disabled: with it on, full enumeration
takes a different join.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import time
from array import array
from contextlib import asynccontextmanager
from typing import Any, Callable, Dict, List, Optional

#: Column order of the ``.bin`` file; every column holds int64 values.
COLUMNS = ("id", "parent", "request", "name", "start_ns", "end_ns", "value")
#: ``value`` of a span that stores none.
NO_VALUE = -1

CLOCK = time.perf_counter_ns
ENGINES: List[Any] = []


class SpanLog:
    """Spans as flat columns, plus sparse tags and extra values."""

    def __init__(self) -> None:
        self.columns = {name: array("q") for name in COLUMNS}
        self.names: Dict[str, int] = {}
        self.tags: Dict[int, str] = {}
        self.extras: Dict[int, Any] = {}

    def add(self, span_id: int, parent: int, request: int, name: str,
            start: int, end: int, value: int = NO_VALUE,
            tag: Optional[str] = None, extra: Any = None) -> None:
        cols = self.columns
        cols["id"].append(span_id)
        cols["parent"].append(parent)
        cols["request"].append(request)
        cols["name"].append(self.names.setdefault(name, len(self.names)))
        cols["start_ns"].append(start)
        cols["end_ns"].append(end)
        cols["value"].append(value)
        if tag is not None:
            self.tags[span_id] = tag
        if extra is not None:
            self.extras[span_id] = extra

    def write(self, json_path: str, header: Dict[str, Any]) -> None:
        with open(bin_path(json_path), "wb") as fh:
            for name in COLUMNS:
                self.columns[name].tofile(fh)
        payload = dict(header)
        payload.update(
            count=len(self.columns["id"]),
            names=sorted(self.names, key=self.names.__getitem__),
            tags=self.tags,
            extras=self.extras,
        )
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def bin_path(json_path: str) -> str:
    """Where the span columns of ``X.json`` live: ``X.bin``."""
    return json_path[: -len(".json")] + ".bin"


def read_spans(json_path: str) -> Dict[str, Any]:
    """Load a span file pair; the columns come back as ``array('q')``."""
    with open(json_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    with open(bin_path(json_path), "rb") as fh:
        data = fh.read()
    count = trace["count"]
    trace["columns"] = {}
    for index, name in enumerate(COLUMNS):
        column = array("q")
        column.frombytes(data[index * 8 * count:(index + 1) * 8 * count])
        trace["columns"][name] = column
    trace["tags"] = {int(k): v for k, v in trace["tags"].items()}
    trace["extras"] = {int(k): v for k, v in trace["extras"].items()}
    return trace


LOG = SpanLog()
_span_ids = itertools.count(1)
_request_ids = itertools.count(1)
_parent: contextvars.ContextVar[int] = contextvars.ContextVar("parent", default=0)
_request: contextvars.ContextVar[int] = contextvars.ContextVar("request", default=0)


def wrap(
    owner: Any,
    attr: str,
    name: str,
    tag: Optional[Callable[[tuple, Any], Optional[str]]] = None,
    value: Optional[Callable[[Any], int]] = None,
    extra: Optional[Callable[[Any], Any]] = None,
    consume: bool = False,
    new_request: bool = False,
) -> None:
    """Replace ``owner.attr`` by a function recording one span per call.

    ``tag(args, result)``, ``value(result)`` and ``extra(result)`` label
    the span from the call.  ``consume`` drains a returned generator
    inside the span (and hands back an iterator over the drained
    items), so the work is timed where it happens.  ``new_request``
    starts a new request id in the caller's context.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if new_request:
            _request.set(next(_request_ids))
        span_id = next(_span_ids)
        parent = _parent.get()
        token = _parent.set(span_id)
        start = CLOCK()
        try:
            result = original(*args, **kwargs)
            if consume:
                result = list(result)
        except BaseException:
            _parent.reset(token)
            LOG.add(span_id, parent, _request.get(), name, start, CLOCK(),
                    tag="raised")
            raise
        end = CLOCK()
        _parent.reset(token)
        LOG.add(
            span_id, parent, _request.get(), name, start, end,
            value(result) if value is not None else NO_VALUE,
            tag(args, result) if tag is not None else None,
            extra(result) if extra is not None else None,
        )
        return iter(result) if consume else result

    setattr(owner, attr, traced)


def wrap_admission(controller_cls: Any) -> None:
    """Record the wait inside ``AdmissionController.admit`` (from entry
    until the request is admitted) as ``service.admission.wait``; a
    refused request records a span tagged ``rejected``."""
    original = controller_cls.admit
    name = "service.admission.wait"

    @asynccontextmanager
    async def admit(self: Any, deadline: Optional[float] = None):
        span_id = next(_span_ids)
        parent = _parent.get()
        start = CLOCK()
        admitted = False
        try:
            async with original(self, deadline):
                LOG.add(span_id, parent, _request.get(), name, start, CLOCK())
                admitted = True
                yield
        except Exception:
            if not admitted:
                LOG.add(span_id, parent, _request.get(), name, start, CLOCK(),
                        tag="rejected")
            raise

    controller_cls.admit = admit


def install() -> None:
    """Wrap every measured layer's entry points."""
    import repro.core.enumerator as enumerator
    import repro.service.engine as engine_mod
    import repro.service.server as server_mod
    from repro.core.distance import DistanceMap
    from repro.core.maintenance import IndexMaintainer
    from repro.core.monitor import MultiPairMonitor
    from repro.graph.digraph import DynamicDiGraph
    from repro.service.admission import AdmissionController
    from repro.service.cache import IndexCache
    from repro.service.protocol import Response

    def repaired(record: Any) -> int:
        return record.delta_partial_paths

    def direct(args: tuple, record: Any) -> Optional[str]:
        return "direct" if record.direct_changed else None

    wrap(server_mod, "decode_request", "service.protocol.decode",
         new_request=True)
    wrap(Response, "to_wire", "service.protocol.encode", value=len)
    wrap(engine_mod, "encode_paths", "service.protocol.encode_paths",
         value=len)
    wrap_admission(AdmissionController)
    wrap(engine_mod.PathQueryEngine, "handle", "service.engine.handle",
         tag=lambda args, result: args[1])
    wrap(IndexCache, "get_or_build", "service.cache.get_or_build",
         tag=lambda args, lookup: lookup.outcome)
    wrap(IndexCache, "observe_all", "service.cache.observe_all", value=len)
    wrap(MultiPairMonitor, "observe", "core.monitor.observe",
         value=lambda results: sum(1 for r in results.values() if r.paths))
    wrap(DynamicDiGraph, "apply_update", "graph.digraph.apply_update")
    wrap(DistanceMap, "__init__", "core.distance.bfs")
    wrap(DistanceMap, "relax_insert", "core.distance.relax", value=len)
    wrap(DistanceMap, "tighten_delete", "core.distance.tighten", value=len)
    wrap(enumerator, "build_index", "core.construction.build_index",
         extra=lambda build: [build.stats.prep_seconds,
                              build.stats.build_seconds,
                              build.stats.expansions, build.stats.pruned])
    wrap(enumerator, "enumerate_full_list", "core.enumeration.full",
         value=len)
    wrap(enumerator, "enumerate_delta", "core.enumeration.delta",
         value=len, consume=True)
    wrap(IndexMaintainer, "insert_edge", "core.maintenance.insert",
         value=repaired, tag=direct)
    wrap(IndexMaintainer, "delete_edge", "core.maintenance.delete",
         value=repaired, tag=direct)
    wrap(IndexMaintainer, "apply_removals", "core.maintenance.apply_removals")

    engine_init = engine_mod.PathQueryEngine.__init__

    @functools.wraps(engine_init)
    def capture(self: Any, *args: Any, **kwargs: Any) -> None:
        engine_init(self, *args, **kwargs)
        ENGINES.append(self)

    engine_mod.PathQueryEngine.__init__ = capture


def index_bytes() -> int:
    """``approx_bytes`` of every live index: watched and cached."""
    total = 0
    for engine in ENGINES:
        for s, t in engine.monitor.pairs():
            total += engine.monitor.enumerator_for(s, t).memory_stats().approx_bytes
        for key in engine.cache.keys():
            total += engine.cache.peek(key).memory_stats().approx_bytes
    return total


def main(argv: List[str]) -> int:
    if len(argv) < 2 or not argv[0].endswith(".json"):
        print("usage: traced_serve.py SPANS.json serve DATASET [...]",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    from repro import obs
    from repro.cli import main as cli_main

    install()
    code = 1
    try:
        code = cli_main(cli_args)
    finally:
        LOG.write(spans_path, {
            "obs_enabled": obs.enabled(),
            "exit_code": code,
            "index_bytes": index_bytes(),
        })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
