"""Run one `esbsim` command in this process, instrumented from outside.

    python3 child.py stamp|trace RECORD_FILE ESBSIM_ARGS...

The command runs through `esbsim.cli.main`, exactly as the installed
`esbsim` entry point runs it; instrumentation replaces module attributes
before the call and edits no source.

stamp  Wraps only `sweep.run_sweep` and `sweep.parse_results_csv`, one call
       per command: the entry of the first one ends set-up (the first
       simulated attempt or the first parsed row follows), and the duration
       of each is kept.  Writes one JSON object to RECORD_FILE, with the
       peak resident set of the command's process tree.
trace  Records a span (name, start, end, parent) around every call into the
       layers listed in SPANS, and counts calls of the per-attempt functions
       in COUNTED.  Spans stay in memory and are written to RECORD_FILE when
       the command ends.  Pool workers cannot run exit hooks, so a worker
       appends its spans to RECORD_FILE.<pid> after each series.

Times are `time.monotonic()`, one clock for every process on the host, so
the parent can relate them to the moment it started this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# span name -> (module, attribute).  Callers look these names up at call
# time, so replacing the module attribute wraps every call.
SPANS = {
    "expfile.parse": ("expfile", "parse_experiment_file"),
    "analytics.calibrate": ("analytics", "calibrate_pipeline"),
    "sweep.run_sweep": ("sweep", "run_sweep"),
    "link.series": ("sweep", "run_attempt_series"),
    "sweep.write_results": ("sweep", "write_results"),
    "sweep.render_csv": ("sweep", "render_results_csv"),
    "sweep.read_results": ("sweep", "read_results"),
    "sweep.parse_csv": ("sweep", "parse_results_csv"),
    "sweep.summarize": ("sweep", "summarize_by_config"),
    "sweep.detect_modes": ("sweep", "detect_modes"),
    "sweep.render_report": ("sweep", "render_report"),
}

# Work items a span handled: attempts of a series, rows rendered or parsed.
ITEMS = {
    "link.series": lambda args, result: len(result),
    "sweep.render_csv": lambda args, result: len(args[0]),
    "sweep.parse_csv": lambda args, result: len(result),
}

# Per-attempt calls, counted (and for dispatch, timed) in aggregate inside
# each series: a span per call would cost more than the call.
COUNTED = {
    "rekeys": ("engine", "RngStream", "rekey"),
    "digests": ("config", "EsbConfig", "digest"),
}
DISPATCH = ("engine", "Engine", "run_until_idle")


def _module(name: str):
    return sys.modules[f"esbsim.{name}"]


def peak_rss_kb() -> int:
    """Largest resident set of this process and of the children it waited
    for (pool workers).  VmHWM counts this process only from its exec; the
    rusage of this process would also count the benchmark process that
    forked it."""
    own = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


class Tracer:
    def __init__(self, path: str):
        self.path = path
        self.main_pid = self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.next_id = 0
        self.counts = {"dispatch_calls": 0, "dispatch_s": 0.0, "rekeys": 0, "digests": 0}

    def install(self) -> None:
        for name, (module, attr) in SPANS.items():
            fn = getattr(_module(module), attr, None)
            if fn is not None:
                setattr(_module(module), attr, self._span(name, fn))
        for key, (module, cls_name, attr) in COUNTED.items():
            cls = getattr(_module(module), cls_name, None)
            if cls is not None and hasattr(cls, attr):
                setattr(cls, attr, self._counter(key, getattr(cls, attr)))
        module, cls_name, attr = DISPATCH
        cls = getattr(_module(module), cls_name, None)
        if cls is not None and hasattr(cls, attr):
            setattr(cls, attr, self._dispatch(getattr(cls, attr)))

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _dispatch(self, fn):
        counts = self.counts

        def timed(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["dispatch_s"] += time.monotonic() - start
                counts["dispatch_calls"] += 1

        return timed

    def _span(self, name, fn):
        items = ITEMS.get(name)

        def spanned(*args, **kwargs):
            pid = os.getpid()
            if pid != self.pid:  # a forked pool worker: drop the parent's spans
                self.pid, self.spans = pid, []
            self.next_id += 1
            span_id = f"{pid}:{self.next_id}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            before = dict(self.counts)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                self.stack.pop()
                span = {"id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent, "pid": pid}
                if items is not None and result is not None:
                    span["items"] = items(args, result)
                if name == "link.series":
                    span.update({k: v - before[k] for k, v in self.counts.items()})
                self.spans.append(span)
                if pid != self.main_pid:
                    self._write(f"{self.path}.{pid}", "a")

        return spanned

    def _write(self, path: str, mode: str) -> None:
        with open(path, mode) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def close(self) -> None:
        self._write(self.path, "w")


class Stamp:
    def __init__(self, path: str):
        self.path = path
        self.record: dict[str, float] = {}

    def install(self) -> None:
        sweep = _module("sweep")
        for attr in ("run_sweep", "parse_results_csv"):
            setattr(sweep, attr, self._wrap(attr, getattr(sweep, attr)))

    def _wrap(self, attr, fn):
        record = self.record

        def stamped(*args, **kwargs):
            start = time.monotonic()
            record.setdefault("setup_end", start)
            try:
                return fn(*args, **kwargs)
            finally:
                record.setdefault(attr + "_s", time.monotonic() - start)

        return stamped

    def close(self) -> None:
        self.record["peak_rss_kb"] = peak_rss_kb()
        with open(self.path, "w") as fh:
            json.dump(self.record, fh)


def main(argv: list[str]) -> int:
    mode, path, *esbsim_args = argv
    from esbsim import cli

    probe = {"stamp": Stamp, "trace": Tracer}[mode](path)
    probe.install()
    try:
        return cli.main(esbsim_args)
    finally:
        probe.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
