"""Span tracing of the fourier_minnorm modules, applied from outside.

``Tracer.install()`` replaces every public function of the traced modules at
every place it is looked up (each module namespace that imported it and the
CLI's ``RUNNERS`` table) by a wrapper that records one span per call:
``(id, name, start, end, parent, thread, invocation)``.  ``uninstall()``
puts the originals back.  Spans stay in memory; ``per_layer_metrics`` turns
them into self times and counts, and ``dump`` writes them out.

Counts are taken at the same boundaries, after the span's end time, so their
bookkeeping lands in the caller's self time, not in the callee's.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

MODULES = ("model", "circulant", "estimators", "risktheory", "montecarlo", "interpolation", "cli")

# Called once per CSV cell: a span each would swamp the serialisation layer
# it belongs to, so its time stays in write_csv's self time.
UNTRACED = {"cli.render_cell", "cli.entrypoint"}

SERIALISATION = ("cli.write_table", "cli.write_csv", "cli.write_json")
SPEC_PARSE = ("cli.build_parser", "cli.spec_from_args", "cli.spec_from_dict")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = 0
        self.written_paths: list[str] = []
        self.spectrum_keys: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.pool_calls: list[tuple[float, float, int]] = []  # (wall, busy cpu, threads)
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._seen_errors: list[BaseException] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread(self) -> int:
        ident = threading.get_ident()
        return self._threads.setdefault(ident, len(self._threads))

    def _record_error(self, module: str, exc: BaseException) -> None:
        # An exception counts once, at the innermost boundary it crosses.
        if any(seen is exc for seen in self._seen_errors):
            return
        self._seen_errors.append(exc)
        self.errors[module] += 1

    def wrap(self, name: str, fn, on_return=None):
        module = name.split(".", 1)[0]
        ids, spans, stack_of, thread_of, clock = self._ids, self.spans, self._stack, self._thread, time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, thread_of(), self.invocation))
                self._record_error(module, exc)
                raise
            end = clock()
            stack.pop()
            spans.append((sid, name, start, end, parent, thread_of(), self.invocation))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_ordered_map(self, fn):
        """ordered_map gets a span plus busy time of the mapped function.

        Pool threads start with an empty span stack, so each item adopts the
        ordered_map span as parent; busy time is thread CPU time, which does
        not count waits for the interpreter lock.
        """
        def ordered_map(item_fn, items, threads):
            parent = self._stack()[-1]
            busy = []

            def item(x):
                stack = self._stack()
                saved = list(stack)
                stack[:] = [parent]
                cpu = time.thread_time()
                try:
                    return item_fn(x)
                finally:
                    busy.append(time.thread_time() - cpu)
                    stack[:] = saved

            start = time.perf_counter()
            result = fn(item, items, threads)
            wall = time.perf_counter() - start
            if threads > 1 and len(items) > 1:
                self.pool_calls.append((wall, sum(busy), threads))
            return result

        return self.wrap("cli.ordered_map", ordered_map)

    # -- count hooks (run after the span has ended) -------------------------
    def _hooks(self) -> dict:
        counts = self.counts

        def spectrum(args, kwargs, result):
            self.spectrum_keys.append((result.D, result.decay_r))

        def folded(args, kwargs, result):
            compensated = args[2] if len(args) > 2 else kwargs.get("compensated", False)
            counts["model.folded_sums.compensated_calls"] += bool(compensated)

        def under(args, kwargs, result):
            grid = args[1] if len(args) > 1 else kwargs["grid"]
            counts["risktheory.risk_under_closed.terms"] += (grid.tau - 1) * grid.p

        def minnorm(args, kwargs, result):
            key = "calls_fft" if result.path.value == "circulant_fft" else "calls_dense"
            counts[f"estimators.weighted_minnorm.{key}"] += 1

        def trials(args, kwargs, result):
            mc = args[3] if len(args) > 3 else kwargs["mc"]
            counts["montecarlo.trials"] += mc.trials

        def matrix_bytes(args, kwargs, result):
            counts["circulant.fourier_matrix.bytes"] += result.nbytes  # 16 * n * cols

        def rows(args, kwargs, result):
            rows_arg = args[3] if len(args) > 3 else kwargs["rows"]
            counts["cli.rows_written"] += len(rows_arg)

        def written(args, kwargs, result):
            self.written_paths.append(str(args[0] if args else kwargs["path"]))

        return {
            "model.build_spectrum": spectrum,
            "model.folded_sums": folded,
            "risktheory.risk_under_closed": under,
            "estimators.weighted_minnorm": minnorm,
            "montecarlo.empirical_risk": trials,
            "circulant.fourier_matrix": matrix_bytes,
            "cli.write_table": rows,
            "cli.write_csv": written,
            "cli.write_json": written,
        }

    # -- install / uninstall ----------------------------------------------
    def install(self, package) -> None:
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        hooks = self._hooks()
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in UNTRACED:
                    continue
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if name == "cli.ordered_map":
                    wrappers[value] = self._wrap_ordered_map(value)
                elif short == "cli" and attr.startswith("run_"):
                    wrappers[value] = self.wrap("cli.runner", value)
                else:
                    wrappers[value] = self.wrap(name, value, hooks.get(name))
        prefix = package.__name__ + "."
        for module in [m for key, m in sys.modules.items() if key == package.__name__ or key.startswith(prefix)]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        runners = modules["cli"].RUNNERS
        for command, fn in list(runners.items()):
            if fn in wrappers:
                self._patches.append((runners, command, fn))
                runners[command] = wrappers[fn]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the union of its children."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _, _ in self.spans:
            covered = 0.0
            hi = -float("inf")
            for c_start, c_end in sorted(children.get(sid, ())):
                if c_end <= hi:
                    continue
                covered += c_end - max(c_start, hi)
                hi = c_end
            out[name] += (end - start) - covered
        return out

    def per_layer_metrics(self) -> dict[str, float]:
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        for _, name, start, end, _, _, _ in self.spans:
            calls[name] += 1
            total[name] += end - start

        def share(part: float, whole: float) -> float:
            return part / whole if whole > 0 else 0.0

        m: dict[str, float] = {}
        m["model.build_spectrum.calls"] = calls["model.build_spectrum"]
        m["model.build_spectrum.self_s"] = self_s["model.build_spectrum"]
        m["model.build_spectrum.distinct_ratio"] = share(len(set(self.spectrum_keys)), len(self.spectrum_keys))
        m["model.folded_sums.calls"] = calls["model.folded_sums"]
        m["model.folded_sums.self_s"] = self_s["model.folded_sums"]
        m["model.folded_sums.compensated_calls"] = self.counts["model.folded_sums.compensated_calls"]
        for fn in ("risk_over_closed", "risk_under_closed", "risk_trace_over", "risk_trace_under"):
            m[f"risktheory.{fn}.calls"] = calls[f"risktheory.{fn}"]
            m[f"risktheory.{fn}.self_s"] = self_s[f"risktheory.{fn}"]
        m["risktheory.risk_under_closed.terms"] = self.counts["risktheory.risk_under_closed.terms"]
        closed = calls["risktheory.risk_over_closed"] + calls["risktheory.risk_under_closed"]
        dense = calls["risktheory.risk_trace_over"] + calls["risktheory.risk_trace_under"]
        m["risktheory.closed_share"] = share(closed, closed + dense)
        for fn in ("trial_generator", "sample_theta", "empirical_risk"):
            m[f"montecarlo.{fn}.self_s"] = self_s[f"montecarlo.{fn}"]
        m["montecarlo.trials"] = self.counts["montecarlo.trials"]
        sampling = total["montecarlo.trial_generator"] + total["montecarlo.sample_theta"]
        m["montecarlo.sample_share"] = share(sampling, total["montecarlo.empirical_risk"])
        m["estimators.weighted_minnorm.calls_fft"] = self.counts["estimators.weighted_minnorm.calls_fft"]
        m["estimators.weighted_minnorm.calls_dense"] = self.counts["estimators.weighted_minnorm.calls_dense"]
        m["estimators.weighted_minnorm.self_s"] = self_s["estimators.weighted_minnorm"]
        for fn in ("estimators.least_squares", "circulant.equispaced_predict", "estimators.solve_weighted_minnorm",
                   "circulant.fourier_matrix", "interpolation.fit_interpolant", "interpolation.evaluate_interpolant"):
            m[f"{fn}.calls"] = calls[fn]
            m[f"{fn}.self_s"] = self_s[fn]
        m["circulant.fourier_matrix.bytes"] = self.counts["circulant.fourier_matrix.bytes"]
        m["cli.write_table.self_s"] = sum(self_s[n] for n in SERIALISATION)
        m["cli.rows_written"] = self.counts["cli.rows_written"]
        m["cli.bytes_written"] = sum(os.path.getsize(p) for p in set(self.written_paths) if os.path.exists(p))
        m["cli.runner.self_s"] = self_s["cli.runner"]
        m["cli.spec_parse.self_s"] = sum(self_s[n] for n in SPEC_PARSE)
        wall = sum(w for w, _, _ in self.pool_calls)
        busy = sum(b for _, b, _ in self.pool_calls)
        m["cli.ordered_map.wall_s"] = wall
        m["cli.ordered_map.busy_s"] = busy
        m["cli.ordered_map.parallel_efficiency"] = share(busy, sum(w * t for w, _, t in self.pool_calls))
        for module in MODULES:
            m[f"{module}.errors"] = self.errors[module]
        return m

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "thread", "invocation"]}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
