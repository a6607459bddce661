"""In-memory span tracing of the sweep stack, installed from outside the package.

For the duration of one traced sweep, :class:`Tracer` replaces the names each
module imports from the layer below (``cli.run_sweep``, ``sweep.finite_n_ici``,
``montecarlo.sample_cell_batch``, ``analytic.integrate`` and so on) with thin
wrappers, then puts the originals back.  Spans carry a name, start, end,
parent and an optional work count.  Quadrature (``integrate`` and
``sine_integral``) is only counted, in calls and integrand points: its time is
the time of the analytic span that calls it.  The wrappers return exactly what
the wrapped function returns, so a traced sweep writes the same bytes as an
untraced one.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# sweep module name -> output it computes (see sweep._eval_point)
OUTPUT_FUNCTIONS = {
    "finite_n_ici": "ici_exact",
    "ici_bounds": "ici_bounds",
    "ici_approx": "ici_approx",
    "estimate_total_ici": "ici_mc",
    "capacity_upper": "capacity_exact",
    "capacity_upper_approx": "capacity_approx",
    "estimate_ergodic_capacity": "capacity_mc",
    "sum_rate_upper": "sum_rate",
}
MC_OUTPUTS = ("ici_mc", "capacity_mc")

# per-layer metrics of a traced run, with their units; the counts must repeat
# exactly from one traced sweep to the next
COUNTS = ("sysmodel.sample_cell_batch.calls", "montecarlo.blocks", "montecarlo.device_paths",
          "analytic.finite_n_ici.calls", "analytic.effective_useful_power.calls",
          "numerics.integrate.calls", "numerics.integrate.evals",
          "numerics.sine_integral.calls", "sweep.rows")
PER_LAYER_UNITS = {
    "sysmodel.sample_cell_batch.s": "s",
    "sysmodel.sample_cell_batch.ns_per_device_path": "ns",
    "numerics.sinc.mc_ns_per_device_path": "ns",
    "montecarlo.estimate.ns_per_device_path": "ns",
    "montecarlo.self_ns_per_device_path": "ns",
    "montecarlo.block_ms": "ms",
    "analytic.finite_n_ici.ms_per_call": "ms",
    "analytic.effective_useful_power.ms_per_call": "ms",
    "sweep.parse_config_ms": "ms",
    "sweep.emit_ms": "ms",
    "sweep.self_s": "s",
    **{f"sweep.output.{o}_s": "s" for o in OUTPUT_FUNCTIONS.values()},
    "cli.self_s": "s",
    "trace.coverage_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    **{name: "count" for name in COUNTS},
}


def _device_paths(rng, n_trials, n_devices, cell, *rest):
    return n_trials * n_devices * cell.paths_per_device


class Tracer:
    """Spans and counters of one traced sweep."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work units]
        self.counts = Counter()
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name, units=None):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, units]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn, units=None):
        def traced(*args, **kwargs):
            with self.span(name, units(*args, **kwargs) if units else None):
                return fn(*args, **kwargs)
        return traced

    def _counted_integrate(self, fn):
        counts = self.counts

        def traced(f, *args, **kwargs):
            counts["numerics.integrate.calls"] += 1

            def counted(x):
                y = f(x)
                counts["numerics.integrate.evals"] += np.size(x)
                return y
            return fn(counted, *args, **kwargs)
        return traced

    def _rows_counted(self, fn):
        def traced(*args, **kwargs):
            rows = fn(*args, **kwargs)
            self.counts["sweep.rows"] += len(rows)
            return rows
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return traced

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper(getattr(module, attr)))

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries of the sweep stack; restore on exit."""
        from nbofdma import analytic, cli, montecarlo, sweep
        try:
            self._patch(cli, "parse_config", lambda fn: self._timed("sweep.parse_config", fn))
            self._patch(cli, "run_sweep",
                        lambda fn: self._timed("sweep.run_sweep", self._rows_counted(fn)))
            self._patch(cli, "emit", lambda fn: self._timed("sweep.emit", fn))
            for attr, output in OUTPUT_FUNCTIONS.items():
                self._patch(sweep, attr,
                            lambda fn, o=output: self._timed(f"sweep.output.{o}", fn))
            self._patch(montecarlo, "sample_cell_batch",
                        lambda fn: self._timed("sysmodel.sample_cell_batch", fn,
                                               _device_paths))
            self._patch(montecarlo, "sinc", lambda fn: self._timed("numerics.sinc", fn))
            self._patch(analytic, "effective_useful_power",
                        lambda fn: self._timed("analytic.effective_useful_power", fn))
            self._patch(analytic, "integrate", self._counted_integrate)
            self._patch(analytic, "sine_integral",
                        lambda fn: self._counted("numerics.sine_integral.calls", fn))
            yield self
        finally:
            for module, attr, original in reversed(self._patched):
                setattr(module, attr, original)
            self._patched.clear()

    def _total(self, name):
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def _calls(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def _units(self, name):
        return sum(units for n, _, _, _, units in self.spans if n == name)

    def metrics(self):
        """Per-layer metrics of the traced sweep wrapped in a ``cli.main`` span,
        all of :data:`PER_LAYER_UNITS` but ``trace.overhead_ratio``.  Per-unit
        ratios read 0 where their layer did no work on this workload.
        """
        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        wall = self._total("cli.main")
        parse = self._total("sweep.parse_config")
        run = self._total("sweep.run_sweep")
        emit = self._total("sweep.emit")
        outputs = {o: self._total(f"sweep.output.{o}") for o in OUTPUT_FUNCTIONS.values()}
        sampler = self._total("sysmodel.sample_cell_batch")
        sampler_calls = self._calls("sysmodel.sample_cell_batch")
        sinc = self._total("numerics.sinc")
        device_paths = self._units("sysmodel.sample_cell_batch")
        estimate = sum(outputs[o] for o in MC_OUTPUTS)
        n_ici = self._calls("sweep.output.ici_exact")
        n_useful = self._calls("analytic.effective_useful_power")
        return {
            "sysmodel.sample_cell_batch.s": sampler,
            "sysmodel.sample_cell_batch.ns_per_device_path": ratio(1e9 * sampler, device_paths),
            "sysmodel.sample_cell_batch.calls": sampler_calls,
            "numerics.sinc.mc_ns_per_device_path": ratio(1e9 * sinc, device_paths),
            "montecarlo.estimate.ns_per_device_path": ratio(1e9 * estimate, device_paths),
            "montecarlo.self_ns_per_device_path":
                ratio(1e9 * (estimate - sampler - sinc), device_paths),
            "montecarlo.blocks": sampler_calls,
            "montecarlo.block_ms": ratio(1e3 * estimate, sampler_calls),
            "montecarlo.device_paths": device_paths,
            "analytic.finite_n_ici.ms_per_call": ratio(1e3 * outputs["ici_exact"], n_ici),
            "analytic.finite_n_ici.calls": n_ici,
            "analytic.effective_useful_power.ms_per_call":
                ratio(1e3 * self._total("analytic.effective_useful_power"), n_useful),
            "analytic.effective_useful_power.calls": n_useful,
            "numerics.integrate.calls": self.counts["numerics.integrate.calls"],
            "numerics.integrate.evals": self.counts["numerics.integrate.evals"],
            "numerics.sine_integral.calls": self.counts["numerics.sine_integral.calls"],
            "sweep.parse_config_ms": 1e3 * parse,
            "sweep.emit_ms": 1e3 * emit,
            "sweep.rows": self.counts["sweep.rows"],
            "sweep.self_s": run - sum(outputs.values()),
            **{f"sweep.output.{o}_s": t for o, t in outputs.items()},
            "cli.self_s": wall - parse - run - emit,
            "trace.coverage_ratio": ratio(parse + emit + sum(outputs.values()), wall),
        }

    def write(self, handle, trace_id):
        """Append the spans and counters as JSON lines sharing ``trace_id``."""
        for index, (name, start, end, parent, units) in enumerate(self.spans):
            handle.write(json.dumps({"trace": trace_id, "span": index, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "units": units}) + "\n")
        handle.write(json.dumps({"trace": trace_id, "counts": dict(self.counts)}) + "\n")
