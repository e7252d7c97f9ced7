"""Run one radcom command, or the region-sampling probe, with per-layer spans.

Usage:
    python perfbench/traced_cli.py TRACE_JSON CLI_ARG...
    python perfbench/traced_cli.py TRACE_JSON --region-probe SCENARIO N SEED

The public functions of radcom's modules are wrapped where their callers
look them up (``radcom.optimizer.rate_report``, ``radcom.cli.tradeoff_sweep``,
``numpy.fft.fft``, ...), and ``numpy.random.default_rng`` returns a proxy
whose draws are spans too.  Spans are totalled per name in memory and
written to TRACE_JSON when the command ends; a span's self time is its
duration minus the time of the spans it encloses.  A per-point sweep makes
about ten spans per row, so totals are kept instead of one record per span.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

MC_SPAN = "waveforms.mc_delay_estimation"

# (span name, module, attribute): each wrapped where its callers look it up.
SPANS = (
    ("scenario.load_scenario", "radcom.cli", "load_scenario"),
    ("optimizer.tradeoff_sweep", "radcom.cli", "tradeoff_sweep"),
    ("optimizer.tradeoff_sweep", "radcom.optimizer", "tradeoff_sweep"),
    ("optimizer.star_point", "radcom.cli", "star_point"),
    ("optimizer.optimal_allocation_for_sumrate", "radcom.optimizer",
     "optimal_allocation_for_sumrate"),
    ("optimizer.sample_feasible_region", "radcom.optimizer", "sample_feasible_region"),
    ("comms.rate_report", "radcom.optimizer", "rate_report"),
    ("comms.jain_fairness", "radcom.optimizer", "jain_fairness"),
    ("radar.total_estimation_variance", "radcom.optimizer", "total_estimation_variance"),
    ("radar.crlb_delay", "radcom.radar", "crlb_delay"),
    ("radar.crlb_delay", "radcom.waveforms", "crlb_delay"),
    (MC_SPAN, "radcom.cli", "mc_delay_estimation"),
    ("waveforms.synthesize", "radcom.cli", "synthesize"),
    ("waveforms.synthesize", "radcom.waveforms", "synthesize"),
    ("waveforms.numeric_rms_bandwidth_sq", "radcom.cli", "numeric_rms_bandwidth_sq"),
    ("waveforms.fft", "numpy.fft", "fft"),
    ("waveforms.fft", "numpy.fft", "ifft"),
)


class Tracer:
    """Per-name span totals, the open-span stack and event counters."""

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []   # [name, time covered by child spans]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` runs outside it."""
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                record = self.spans.get(name)
                if record is None:
                    record = self.spans[name] = {"calls": 0, "total_s": 0.0,
                                                 "self_s": 0.0, "parents": {}}
                record["calls"] += 1
                record["total_s"] += duration
                record["self_s"] += duration - frame[1]
                record["parents"][parent] = record["parents"].get(parent, 0) + 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


class RngProxy:
    """A numpy Generator whose method calls are ``waveforms.rng`` spans.

    Counts the values each method returns under ``rng.<method>.values``.
    """

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr
        tracer = self._tracer
        return tracer.span("waveforms.rng", attr, lambda args, kwargs, result:
                           tracer.count(f"rng.{name}.values", getattr(result, "size", 1)))


def install(tracer: Tracer) -> None:
    import numpy
    from radcom.errors import InfeasibleError

    def fft_after(args, kwargs, result):
        # Bytes are computed from array sizes: input plus output of the transform.
        data = numpy.asarray(args[0])
        tracer.count("fft.bytes", data.nbytes + result.nbytes)
        padded = kwargs.get("n", args[1] if len(args) > 1 else None)
        if padded is not None and tracer.active(MC_SPAN):
            length = data.shape[kwargs.get("axis", args[2] if len(args) > 2 else -1)]
            transforms = data.size // length
            tracer.count("fft.mc_padded", transforms)
            tracer.count("fft.mc_len_over_input", transforms * padded / length)

    def counting_infeasible(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except InfeasibleError:
                tracer.count("optimizer.infeasible")
                raise
        return call

    def mc_after(args, kwargs, report):
        tracer.count("mc.trials", report.trials)

    hooks = {"fft": fft_after, "ifft": fft_after, "mc_delay_estimation": mc_after}
    wrappers = {}
    for name, module_name, attr in SPANS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            continue
        if original not in wrappers:
            fn = original
            if attr == "optimal_allocation_for_sumrate":
                fn = counting_infeasible(original)
            wrappers[original] = tracer.span(name, fn, hooks.get(attr))
        setattr(module, attr, wrappers[original])

    default_rng = numpy.random.default_rng
    numpy.random.default_rng = lambda *a, **k: RngProxy(default_rng(*a, **k), tracer)


def region_probe(scenario: str, n: int, seed: int) -> dict:
    """Sample the feasible region once and report its cost and acceptance."""
    import radcom.optimizer
    from radcom.radar import WaveformKind, WaveformSpec
    from radcom.scenario import load_scenario

    cfg = load_scenario(Path(scenario).read_text(encoding="utf-8"))
    spec = WaveformSpec(WaveformKind.LINEAR_FM, cfg.bandwidth_hz, cfg.time_bandwidth)
    points = radcom.optimizer.sample_feasible_region(cfg, spec, n, seed)
    return {"requested": n, "kept": len(points)}


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    start = perf_counter()
    import numpy  # noqa: F401  (imported here so its cost is measured)
    numpy_done = perf_counter()
    import radcom.cli
    radcom_done = perf_counter()

    tracer = Tracer()
    install(tracer)
    result: dict = {}
    rc = 1
    try:
        if args[:1] == ["--region-probe"]:
            result = region_probe(args[1], int(args[2]), int(args[3]))
            rc = 0
        else:
            rc = tracer.span("cli.main", radcom.cli.main)(args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": tracer.counters,
                       "import_numpy_s": numpy_done - start,
                       "import_radcom_s": radcom_done - numpy_done,
                       "result": result}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
