"""Server process of the serve workloads.

``python3 -m perfbench.launcher [--spans FILE] serve ...`` runs
``repro serve`` through :func:`repro.cli.main`.  With ``--spans`` it
first wraps the serving layers' entry points in spans and writes them
to ``FILE`` when the server has drained and returned.

Span layout of one ``/search`` request on the event-loop thread::

    http.dispatch
      protocol.parse          (parse_search)
      service.submit          (admission + wait for the engine + reply)
        protocol.json         (json_bytes of the reply)

and of one dispatch round on the engine thread (attribute ``round``)::

    service.execute
      batch.evaluate          (BatchQueryEngine.evaluate_keys)
      protocol.encode         (encode_outcome, once per job)

Queue wait (enqueue to dispatch) and server latency (enqueue to
reply) are recorded per job as samples.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from typing import Any

from perfbench.clock import now
from perfbench.spans import Recorder

__all__ = ["install_serve_spans", "main"]


def install_serve_spans(rec: Recorder) -> None:
    """Wrap the serving layers' entry points in spans recorded by ``rec``."""
    from repro.overlay import batch
    from repro.serve import server, service, state

    rec.patch(server.OverlayQueryServer, "_dispatch", "http.dispatch")
    rec.patch(server, "parse_search", "protocol.parse")
    rec.patch(server.OverlayQueryServer, "_submit", "service.submit")
    rec.patch(server, "json_bytes", "protocol.json")
    rec.patch(service, "encode_outcome", "protocol.encode")
    rec.patch(batch.BatchQueryEngine, "evaluate_keys", "batch.evaluate")
    rec.patch(state.ServiceState, "__init__", "state.publish")
    from_config = state.ServiceState.__dict__["from_config"].__func__
    state.ServiceState.from_config = classmethod(  # type: ignore[method-assign]
        rec.wrap(from_config, "state.load")
    )

    execute = service.QueryService._execute
    resolve = service.QueryService._resolve
    rounds = itertools.count(1)

    def traced_execute(self: Any, jobs: list[Any]) -> Any:
        started = now()
        for job in jobs:
            rec.sample("service.queue_wait", started - job.enqueued_at)
        with rec.span("service.execute", round=next(rounds), jobs=len(jobs)):
            return execute(self, jobs)

    def traced_resolve(self: Any, job: Any, reply: Any) -> None:
        rec.sample("service.latency", now() - job.enqueued_at)
        resolve(self, job, reply)

    service.QueryService._execute = traced_execute  # type: ignore[method-assign]
    service.QueryService._resolve = traced_resolve  # type: ignore[method-assign]


def main(argv: list[str] | None = None) -> int:
    """Run ``repro`` with the given arguments, traced when asked."""
    args = list(sys.argv[1:] if argv is None else argv)
    spans_out: Path | None = None
    if args[:1] == ["--spans"]:
        spans_out, args = Path(args[1]), args[2:]
    from repro.cli import main as repro_main

    rec = Recorder() if spans_out is not None else None
    if rec is not None:
        install_serve_spans(rec)
    try:
        return repro_main(args)
    finally:
        if rec is not None and spans_out is not None:
            rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
