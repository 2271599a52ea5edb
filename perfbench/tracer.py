"""Per-layer spans taken from outside the program.

Runs one workload in-process after wrapping the public names each layer
exposes where the caller looks them up: the library functions and stage_*
imported by gridsync.cli (or by conus.py), gridsync.surrogate.compute_metric
and Network.from_edges. No gridsync source changes. Spans stay in memory and
are written as JSON when the workload ends:

    python perfbench/tracer.py --spans FILE cli pipeline --config CFG --out DIR
    python perfbench/tracer.py --spans FILE library --grid ... --out DIR
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time


def _metric_span(prefix: str):
    def name(net, metric=None, *args, **kwargs):
        return prefix + metric

    return name


# call-site name -> span name, or a function of the call's arguments giving it
LIBRARY_SPANS = {
    "load_gridded": "grid_io.load",
    "extract_season": "grid_io.season",
    "extract_events": "events.extract",
    "build_network": "sync.build_network",
    "compute_metric": _metric_span("netmetrics."),
    "log_bc": "netmetrics.log_bc",
    "estimate_profile": "surrogate.profile",
    "ensemble_stats": "surrogate.ensemble",
    "correct_subtract": "correction.correct",
    "correct_divide": "correction.correct",
    "compare_methods": "stats.compare",
    # artifact readers and writers, including the formats kept in surrogate.py and correction.py
    **{f: "grid_io.read" for f in (
        "read_event_series", "read_grid_csv", "read_edge_list", "read_metric_csv",
        "read_profile_csv", "read_surrogate_stats_csv", "read_corrected_csv")},
    **{f: "grid_io.write" for f in (
        "write_gridded", "write_event_series", "write_grid_csv", "write_edge_list",
        "write_metric_csv", "write_profile_csv", "write_surrogate_stats_csv", "write_corrected_csv")},
}
STAGES = ("events", "network", "metrics", "surrogate", "correct", "compare")


class Tracer:
    """Collects spans as [name, start, end, parent index, thread id].

    A span's parent is the innermost open span of its thread. A span opened on
    a worker thread with none open attaches to the innermost open span of the
    main thread, the call that started the worker pool.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._main = threading.get_ident()
        self._open: dict[int, list[int]] = {}
        self._lock = threading.Lock()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            tid = threading.get_ident()
            with self._lock:
                stack = self._open.setdefault(tid, [])
                outer = stack or self._open.get(self._main) or [None]
                idx = len(self.spans)
                self.spans.append([label, 0.0, 0.0, outer[-1], tid])
                stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    self.spans[idx][1:3] = [start, end]
                    stack.pop()

        return traced

    def patch(self, module, names: dict, required: bool) -> None:
        for attr, name in names.items():
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), name))
            elif required:
                self.missing.append(f"{module.__name__}.{attr}")

    def install(self, caller, required: bool) -> None:
        import gridsync.cli
        import gridsync.surrogate
        from gridsync.netmetrics import Network

        self.patch(caller, LIBRARY_SPANS, required)
        self.patch(gridsync.cli, {f"stage_{s}": f"cli.stage.{s}" for s in STAGES}, True)
        self.patch(gridsync.surrogate, {"compute_metric": _metric_span("surrogate.member.")}, True)
        if hasattr(Network, "from_edges"):
            Network.from_edges = staticmethod(self.wrap(Network.from_edges, "netmetrics.from_edges"))
        else:
            self.missing.append("gridsync.netmetrics.Network.from_edges")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload in-process with layer spans.")
    ap.add_argument("--spans", required=True, help="JSON file the spans are written to")
    ap.add_argument("kind", choices=("cli", "library"))
    ap.add_argument("args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    tracer = Tracer()
    if args.kind == "cli":
        import gridsync.cli as caller
    else:
        import conus as caller
    tracer.install(caller, required=args.kind == "cli")
    code = caller.main(args.args)
    with open(args.spans, "w") as f:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
