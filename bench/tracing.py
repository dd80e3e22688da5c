"""Spans around the public functions of each ``clonality`` module.

The tracer replaces a function under the name its callers look it up by
(for example ``conditional_test`` in both ``clonality.cli`` and
``clonality.simulation``), records one span per call, and restores the
originals on ``uninstall``. Nothing in the package changes.

A span holds its name, start, end, parent span, op id and thread, plus the
work counts of that call. A call made on a worker thread with no open span
of its own is parented to the innermost span open on the thread that
started the op, so ``pairs --threads 2`` nests under ``cli.main``.
Self time is a span's duration minus the part of it that its children
cover, with overlapping children (threads) merged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

OP_SPAN = "bench.op"


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    op: Optional[int]
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _argument(fn: Callable, name: str):
    """Getter for one argument of ``fn``, whether passed by position or keyword."""
    signature = inspect.signature(fn)
    position = list(signature.parameters).index(name)

    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[position]
    return get


def _mutation_rows(fn):
    return lambda args, kwargs, result: {"rows": sum(len(m) or 1 for m in result.values())}


def _record_rows(fn):
    return lambda args, kwargs, result: {"rows": len(result)}


def _fit_rows(fn):
    matched = _argument(fn, "matched")
    return lambda args, kwargs, result: {
        "rows": int(np.atleast_2d(np.asarray(matched(args, kwargs))).shape[0])
    }


def _exact_atoms(fn):
    return lambda args, kwargs, result: {"atoms": int(np.asarray(result.statistics).size)}


def _mc_sims(fn):
    n_sims = _argument(fn, "n_sims")
    return lambda args, kwargs, result: {"sims": int(n_sims(args, kwargs))}


# (span name, module, attribute where callers look it up, count maker)
TARGETS = (
    ("cli.main", "clonality.cli", "main", None),
    ("cli.read_mutations_file", "clonality.cli", "read_mutations_file", _mutation_rows),
    ("cli.read_probability_file", "clonality.cli", "read_probability_file", _record_rows),
    ("cli.read_counts_file", "clonality.cli", "read_counts_file", _record_rows),
    ("priors.estimate_marginal_probability", "clonality.cli", "estimate_marginal_probability", None),
    ("priors.estimate_marginal_probability", "clonality.priors", "estimate_marginal_probability", None),
    ("model.derive_pair_observation", "clonality.cli", "derive_pair_observation", None),
    ("model.derive_pair_observation", "clonality.simulation", "derive_pair_observation", None),
    ("inference.fit_conditional_batch", "clonality.nullref", "fit_conditional_batch", _fit_rows),
    ("inference.fit_conditional_batch", "clonality.inference", "fit_conditional_batch", _fit_rows),
    ("inference.conditional_statistic", "clonality.nullref", "conditional_statistic", None),
    ("inference.UnconditionalSummary.from_profiles", "clonality.inference",
     "UnconditionalSummary.from_profiles", None),
    ("inference.fit_unconditional_batch", "clonality.inference", "fit_unconditional_batch", None),
    ("inference.fit_unconditional_batch", "clonality.nullref", "fit_unconditional_batch", None),
    ("nullref.conditional_test", "clonality.cli", "conditional_test", None),
    ("nullref.conditional_test", "clonality.simulation", "conditional_test", None),
    ("nullref.exact_conditional_null", "clonality.nullref", "exact_conditional_null", _exact_atoms),
    ("nullref.sample_conditional_null", "clonality.nullref", "sample_conditional_null", _mc_sims),
    ("nullref.p_value", "clonality.nullref", "p_value", None),
    ("nullref.p_value", "clonality.simulation", "p_value", None),
    ("nullref.calibrated_rejection", "clonality.simulation", "calibrated_rejection", None),
    ("nullref.cached_unconditional_null", "clonality.simulation", "cached_unconditional_null", None),
    ("nullref.sample_unconditional_null", "clonality.nullref", "sample_unconditional_null", None),
    ("simulation.sample_tumor_pair", "clonality.simulation", "sample_tumor_pair", None),
    ("simulation.scenario_catalog", "clonality.simulation", "scenario_catalog", None),
    ("simulation.run_size_power", "clonality.simulation", "run_size_power", None),
    ("simulation.run_size_power", "clonality.cli", "run_size_power", None),
    ("simulation.run_calibrated_comparison", "clonality.simulation",
     "run_calibrated_comparison", None),
    ("rng.RngStream.generator", "clonality.rng", "RngStream.generator", None),
)


class Tracer:
    """Collects spans in memory; ``write`` saves them once at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(0)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._op: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._op_stack[-1] if tracer._op_stack else None
            span_id = next(tracer._ids)
            op = tracer._op
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, parent, name, start, end, op,
                                         threading.get_ident(), {"errors": 1}))
                raise
            end = time.perf_counter()
            stack.pop()
            counts = count(args, kwargs, result) if count else {}
            tracer.spans.append(Span(span_id, parent, name, start, end, op,
                                     threading.get_ident(), counts))
            return result
        return traced

    def install(self) -> None:
        self.missing = []
        for name, module_name, attribute, count_maker in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except AttributeError:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            count = None
            if count_maker is not None:
                try:
                    count = count_maker(fn)
                except ValueError:  # the counted argument was renamed
                    self.missing.append(f"{module_name}.{attribute} (counts)")
            traced = self._wrap(name, fn, count)
            setattr(owner, leaf, classmethod(traced) if is_classmethod else traced)
            self._patches.append((owner, leaf, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, raw = self._patches.pop()
            setattr(owner, leaf, raw)

    @contextmanager
    def op(self):
        """Root span of one op, opened on the calling thread."""
        stack = self._stack()
        span_id = next(self._ids)
        op_id = self._op = next(self._op_ids)
        self._op_stack = stack
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, None, OP_SPAN, start, end, op_id,
                                   threading.get_ident()))
            self._op = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the merged intervals of its children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


_PARSE = ("cli.read_mutations_file", "cli.read_probability_file", "cli.read_counts_file")


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metric values, and per-span-name calls/busy/self for the report."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_time(*names):
        return sum(own[s.id] for name in names for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def total(name, key, under=None):
        return sum(s.counts.get(key, 0) for s in by_name[name]
                   if under is None or (s.parent in by_id and by_id[s.parent].name == under))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    top_parse = [s for name in _PARSE for s in by_name[name]
                 if not (s.parent in by_id and by_id[s.parent].name in _PARSE)]
    cache_calls = by_name["nullref.cached_unconditional_null"]
    builders = {s.parent for s in by_name["nullref.sample_unconditional_null"]}
    fit_rows_exact = total("inference.fit_conditional_batch", "rows", "nullref.exact_conditional_null")
    fit_rows_mc = total("inference.fit_conditional_batch", "rows", "nullref.sample_conditional_null")
    atoms = total("nullref.exact_conditional_null", "atoms")
    sims = total("nullref.sample_conditional_null", "sims")
    ops = by_name[OP_SPAN]
    op_wall = sum(s.duration for s in ops)
    layer_self = sum(own[s.id] for s in spans if s.name != OP_SPAN)

    metrics = {
        "cli.parse_s": sum(s.duration for s in top_parse),
        "cli.parse_rows": sum(s.counts.get("rows", 0) for s in top_parse),
        "cli.op_self_s": self_time("cli.main"),
        "priors.estimate_s": busy("priors.estimate_marginal_probability"),
        "priors.estimate_calls": calls("priors.estimate_marginal_probability"),
        "model.derive_s": busy("model.derive_pair_observation"),
        "model.derive_calls": calls("model.derive_pair_observation"),
        "inference.fit_cond_s": busy("inference.fit_conditional_batch"),
        "inference.fit_cond_calls": calls("inference.fit_conditional_batch"),
        "inference.fit_cond_rows": total("inference.fit_conditional_batch", "rows"),
        "inference.observed_fit_s": busy("inference.conditional_statistic"),
        "inference.uncond_summary_s": busy("inference.UnconditionalSummary.from_profiles"),
        "inference.uncond_summary_calls": calls("inference.UnconditionalSummary.from_profiles"),
        "inference.fit_uncond_s": busy("inference.fit_unconditional_batch"),
        "inference.fit_uncond_calls": calls("inference.fit_unconditional_batch"),
        "nullref.exact_null_s": busy("nullref.exact_conditional_null"),
        "nullref.exact_null_self_s": self_time("nullref.exact_conditional_null"),
        "nullref.exact_patterns": fit_rows_exact,
        "nullref.exact_atoms": atoms,
        "nullref.exact_atoms_per_pattern": ratio(atoms, fit_rows_exact),
        "nullref.mc_null_s": busy("nullref.sample_conditional_null"),
        "nullref.mc_null_self_s": self_time("nullref.sample_conditional_null"),
        "nullref.mc_sims": sims,
        "nullref.mc_patterns": fit_rows_mc,
        "nullref.mc_patterns_per_sim": ratio(fit_rows_mc, sims),
        "nullref.p_value_s": busy("nullref.p_value"),
        "nullref.p_value_calls": calls("nullref.p_value"),
        "nullref.calibrate_s": busy("nullref.calibrated_rejection"),
        "nullref.uncond_null_s": busy("nullref.sample_unconditional_null"),
        "nullref.uncond_cache_hits": sum(1 for s in cache_calls if s.id not in builders),
        "nullref.uncond_cache_calls": len(cache_calls),
        "simulation.sample_pair_s": busy("simulation.sample_tumor_pair"),
        "simulation.sample_pair_calls": calls("simulation.sample_tumor_pair"),
        "simulation.catalog_s": busy("simulation.scenario_catalog"),
        "simulation.catalog_calls": calls("simulation.scenario_catalog"),
        "simulation.run_self_s": self_time("simulation.run_size_power",
                                           "simulation.run_calibrated_comparison"),
        "rng.generator_s": busy("rng.RngStream.generator"),
        "rng.generator_calls": calls("rng.RngStream.generator"),
        "trace.ops": len(ops),
        "trace.op_wall_s": op_wall,
        "trace.gap_s": op_wall - layer_self,
    }
    rows = {}
    for name in sorted({target[0] for target in TARGETS} | {OP_SPAN}):
        group = by_name[name]
        keys = sorted({k for s in group for k in s.counts})
        rows[name] = {"calls": len(group), "busy_s": busy(name), "self_s": self_time(name),
                      "counts": {k: sum(s.counts.get(k, 0) for s in group) for k in keys}}
    return metrics, rows


RATIO_BASES = {
    "nullref.exact_atoms_per_pattern": ("nullref.exact_atoms", "nullref.exact_patterns"),
    "nullref.mc_patterns_per_sim": ("nullref.mc_patterns", "nullref.mc_sims"),
}


def report(metrics: dict[str, float], rows: dict[str, dict], missing: list[str]) -> str:
    """The per-layer table: busy and self time, counts, ratios with their bases."""
    wall = metrics["trace.op_wall_s"]
    lines = [f"{'span':<46}{'calls':>9}{'busy_s':>11}{'self_s':>11}{'self%':>7}  counts"]
    for name, row in rows.items():
        share = 100.0 * row["self_s"] / wall if wall else 0.0
        counts = " ".join(f"{k}={v}" for k, v in row["counts"].items())
        lines.append(f"{name:<46}{row['calls']:>9}{row['busy_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}{share:>6.1f}%  {counts}")
    layer_self = wall - metrics["trace.gap_s"]
    lines.append(f"ops {metrics['trace.ops']}: op wall {wall:.4f} s, summed layer self "
                 f"{layer_self:.4f} s, gap {metrics['trace.gap_s']:.4f} s "
                 f"({100.0 * metrics['trace.gap_s'] / wall if wall else 0.0:.2f}% of op wall; "
                 "negative when worker threads overlap)")
    for name, (top, bottom) in RATIO_BASES.items():
        lines.append(f"{name} = {metrics[name]:.6g} ({top} {metrics[top]} / "
                     f"{bottom} {metrics[bottom]})")
    if missing:
        lines.append("not traced (name not found): " + ", ".join(missing))
    return "\n".join(lines)
