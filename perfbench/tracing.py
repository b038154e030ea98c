"""Spans and counters around calls into each lensbounds module.

Run as `python -m perfbench.tracing <cli args>` (with `src` on PYTHONPATH),
this module imports `lensbounds.cli` and the other traced modules, wraps the
public functions listed in TARGETS in every lensbounds namespace that holds
them, runs `lensbounds.cli.main` on the arguments, and writes its spans and
counters as JSON to the file named by $PERFBENCH_TRACE_FILE.  Exit code,
stdout and stderr are the CLI's own.

Spans are kept in memory.  One span stands for all calls of one function
made from one parent span, so millions of calls into a leaf layer do not
make millions of records: `calls` counts them, `busy` sums their durations,
and `start`/`end` bound the first and last.  A call nested in a call of the
same function (recursion) adds to the counters only.  A layer's self time
is its spans' busy time minus that of their child spans (see self_times).

Each wrapper adds stack frames, so while it runs it raises the recursion
limit by exactly the frames it adds.  A traced run therefore fails with
RecursionError on the same inputs as an untraced one.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.render_csv", "cli", "render_csv"),
    ("cli.render_jsonl", "cli", "render_jsonl"),
    ("cli.render_markdown", "cli", "render_markdown"),
    ("cli.render_human", "cli", "render_human"),
    ("catalog.report", "catalog", "report"),
    ("catalog.euler_class_lower_bounds", "catalog", "euler_class_lower_bounds"),
    ("catalog.conjectural_lower_bounds", "catalog", "conjectural_lower_bounds"),
    ("catalog.spin_upper", "catalog", "spin_upper"),
    ("inductive.derive_rounds", "inductive", "derive_rounds"),
    ("records.replay", "records", "DerivationNode.replay"),
    ("records.to_lines", "records", "DerivationNode.to_lines"),
    ("records.to_dict", "records", "DerivationNode.to_dict"),
    ("lifting.embedding_gate", "lifting", "embedding_gate"),
    ("lifting.davis_mahowald_check", "lifting", "davis_mahowald_check"),
    ("cohomology.is_spin", "cohomology", "is_spin"),
    ("sweeps.kummer_legendre", "sweeps", "sweep_kummer_legendre"),
    ("sweeps.alpha_identity", "sweeps", "sweep_alpha_identity"),
    ("sweeps.alpha_symbolic", "sweeps", "sweep_alpha_symbolic"),
    ("sweeps.nu_binom_symbolic", "sweeps", "sweep_nu_binom_symbolic"),
    ("verify.dyadic", "verify", "verify_dyadic"),
    ("verify.cohomology", "verify", "verify_cohomology"),
    ("verify.lifting", "verify", "verify_lifting"),
    ("verify.rounds", "verify", "verify_rounds"),
    ("verify.bounds", "verify", "verify_bounds"),
)
# Called hundreds of thousands of times by verify: counted, not timed.
COUNTED = (
    ("cohomology.steenrod_square", "cohomology", "steenrod_square"),
    ("cohomology.multiply", "cohomology", "multiply"),
)


def _frame_cost(make_wrapper) -> int:
    """Recursion depth a wrapper from make_wrapper(fn) adds to a call."""
    def probe(n: int = 0) -> int:
        try:
            return probe(n + 1)
        except RecursionError:
            return n
    return probe() - make_wrapper(probe)()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = [{"id": 0, "kids": {}}]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()
        self.replayed: set[int] = set()
        self.cache_info = None
        self.misses_seen = 0
        # Measured with a bump of 0, on a wrapper like every other one.
        self.frame_cost = 0
        self.frame_cost = _frame_cost(lambda fn: self.counted("probe", fn))
        del self.calls["probe"]

    def record(self, name: str, start: float, end: float) -> None:
        """Add one finished span under the innermost open span."""
        span = self._span(name, start)
        span["calls"] += 1
        span["busy"] += end - start
        span["end"] = end

    def _span(self, name: str, start: float) -> dict:
        parent = self.stack[-1]
        span = parent["kids"].get(name)
        if span is None:
            span = {"id": len(self.spans) + 1, "name": name,
                    "parent": parent["id"], "start": start, "end": start,
                    "calls": 0, "busy": 0.0, "kids": {}}
            parent["kids"][name] = span
            self.spans.append(span)
        return span

    def timed(self, name: str, fn, observe=None):
        tracer, bump = self, self.frame_cost
        clock = time.perf_counter

        def call(*args, **kwargs):
            tracer.calls[name] += 1
            if observe is not None:
                observe(tracer, args)
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(limit + bump)
            try:
                if tracer.depth[name]:
                    return fn(*args, **kwargs)
                tracer.depth[name] += 1
                start = clock()
                span = tracer._span(name, start)
                tracer.stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    tracer.stack.pop()
                    tracer.depth[name] -= 1
                    span["calls"] += 1
                    span["busy"] += end - start
                    span["end"] = end
                tracer._after(name, result)
                return result
            finally:
                sys.setrecursionlimit(limit)
        return call

    def counted(self, name: str, fn):
        tracer, bump = self, self.frame_cost

        def call(*args, **kwargs):
            tracer.calls[name] += 1
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(limit + bump)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setrecursionlimit(limit)
        return call

    def _after(self, name: str, result) -> None:
        layer, _, what = name.partition(".")
        if layer == "verify":
            self.counts[f"verify.{what}_cases"] += sum(r.cases for r in result)
        elif name == "inductive.derive_rounds":
            # A call built its rounds unless the cache answered it.
            misses = self.cache_info().misses if self.cache_info else None
            if misses is None or misses != self.misses_seen:
                self.counts["inductive.bounds_built"] += len(result)
                self.misses_seen = misses

    def dump(self, path: str, extra: dict) -> None:
        spans = [{k: v for k, v in s.items() if k != "kids"} for s in self.spans]
        counts = dict(self.counts)
        counts.update({f"{name}.calls": n for name, n in self.calls.items()})
        counts["records.nodes_unique"] = len(self.replayed)
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": {**counts, **extra}}, fh)


def _observe_replay(tracer: Tracer, args) -> None:
    tracer.replayed.add(id(args[0]))


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded lensbounds namespace that refers
    to it; targets the program no longer has are skipped."""
    modules = [m for n, m in sys.modules.items()
               if n == "lensbounds" or n.startswith("lensbounds.")]
    for name, mod_name, attr in TARGETS + COUNTED:
        mod = sys.modules.get(f"lensbounds.{mod_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            continue
        if name == "inductive.derive_rounds":
            tracer.cache_info = getattr(original, "cache_info", None)
        if (name, mod_name, attr) in COUNTED:
            wrapper = tracer.counted(name, original)
        else:
            observe = _observe_replay if name == "records.replay" else None
            wrapper = tracer.timed(name, original, observe)
        if owner_name:
            setattr(owner, method, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer (the span name up to its first dot): each span's
    busy time minus the busy time of its child spans, summed by layer.
    Spans carry an `op` field; ids are unique within one op."""
    covered: dict = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[(s["op"], s["parent"])] += s["busy"]
    out: dict = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += s["busy"] - covered[(s["op"], s["id"])]
    return dict(out)


def main() -> int:
    path = os.environ["PERFBENCH_TRACE_FILE"]
    tracer = Tracer()
    start = time.perf_counter()
    import lensbounds.cli as cli
    tracer.record("cli.import", start, time.perf_counter())
    extra = {"cli.numpy_loaded": int("numpy" in sys.modules)}
    # Modules the CLI imports only when a command needs them are imported
    # here, so that they are traced too.  The time shows as `trace.preload`.
    start = time.perf_counter()
    for module in {mod for _, mod, _ in TARGETS + COUNTED}:
        try:
            importlib.import_module(f"lensbounds.{module}")
        except ImportError:
            pass
    tracer.record("trace.preload", start, time.perf_counter())
    install(tracer)
    try:
        return cli.main(sys.argv[1:])
    finally:
        if tracer.cache_info is not None:
            info = tracer.cache_info()
            extra.update({"inductive.cache_hits": info.hits,
                          "inductive.cache_misses": info.misses})
        tracer.dump(path, extra)


if __name__ == "__main__":
    sys.exit(main())
