"""Spans around the calls into each ``advmatch`` layer, recorded from outside.

Wrappers are installed on module attributes at the site where the program
looks them up (``advmatch.pipeline.score_bucket`` is the name
``_process_bucket`` calls), so nothing under ``src/`` changes.  Each span
records its name, start, end, parent and the id of the bucket being
processed.  Spans stay in memory; :meth:`Tracer.layers` turns them into
per-layer self times and counts when the command has finished.

A target that no longer exists (a later change may delete or rename it) is
reported as missing and skipped, and so are the counts of a layer whose
arguments or result changed shape; neither fails the run.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

import numpy as np

# (span name, module, attribute path at the lookup site)
TARGETS = (
    ("corpus.parse", "advmatch.cli", "parse_records"),
    ("pipeline.match", "advmatch.cli", "run_match"),
    ("pipeline.match", "advmatch.diagnostics", "run_match"),
    ("corpus.split", "advmatch.pipeline", "split_folds"),
    ("bucketing.build", "advmatch.pipeline", "build_buckets"),
    ("bucketing.kmeans", "advmatch.bucketing", "cluster_embeddings"),
    ("pipeline.bucket", "advmatch.pipeline", "_process_bucket"),
    ("remap.table", "advmatch.remap", "CandidateTable.__init__"),
    ("remap.get", "advmatch.remap", "CandidateTable.get"),
    ("remap.fallback", "advmatch.remap", "CandidateTable.translated_pairs"),
    ("scoring.score", "advmatch.pipeline", "score_bucket"),
    ("matcher.rounds", "advmatch.pipeline", "run_rounds"),
    ("matcher.eff_sim", "advmatch.matcher", "effective_similarity"),
    ("matcher.weights", "advmatch.matcher", "weight_matrix"),
    ("assignment.solve", "advmatch.matcher", "solve_lap_max"),
    ("assignment.feasibility", "advmatch.assignment", "_is_feasible"),
    ("assignment.lsa", "advmatch.assignment", "linear_sum_assignment"),
    ("assignment.lexicalize", "advmatch.assignment", "_lexicalize"),
    ("matcher.export", "advmatch.pipeline", "export_mcq"),
    ("matcher.write", "advmatch.cli", "write_items"),
    ("cli.write", "advmatch.cli", "_write_out"),
    ("diagnostics.sweep", "advmatch.cli", "lambda_sweep"),
    ("diagnostics.attack", "advmatch.diagnostics", "machine_accuracy"),
)

# Spans that orchestrate rather than compute; their self time is the part
# of pipeline.match the wrapped layers do not explain.
ORCHESTRATION = ("pipeline.match", "pipeline.bucket")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    bucket: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.bucket_sizes: dict[str, int] = {}  # bucket id -> members
        self.retained_mb = 0.0  # largest sum of array bytes one RunResult held
        self.match_items: list[list] = []  # items of each run_match call
        self._stack: list[int] = []
        self._bucket: str | None = None
        self._originals: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- installation --------------------------------------------------------

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Wrap every target, or only the span names in ``only``."""
        for name, module, path in TARGETS:
            if only is not None and name not in only:
                continue
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, _AFTER.get(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn, after):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            if name == "pipeline.bucket":
                tracer._bucket = _bucket_id(args)
            span = Span(name, 0.0, 0.0, parent, tracer._bucket)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if name == "pipeline.bucket":
                    tracer._bucket = None
            if after is not None:
                try:
                    after(tracer, args, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                    # the layer's signature changed; its counts are missing
                    if f"counts of {name}" not in tracer.missing:
                        tracer.missing.append(f"counts of {name}")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layers(self) -> dict[str, float]:
        """Self time per span name, plus counts and sizes."""
        out: dict[str, float] = {}
        own = self.self_times()
        for s, t in zip(self.spans, own):
            key = f"{s.name}_s"
            out[key] = out.get(key, 0.0) + t
        bucket_s = [s.end - s.start for s in self.spans if s.name == "pipeline.bucket"]
        if bucket_s:
            out["pipeline.bucket_p50_s"] = float(np.percentile(bucket_s, 50))
            out["pipeline.bucket_p90_s"] = float(np.percentile(bucket_s, 90))
        out.update(self.counts)
        out["remap.get_calls"] = sum(1 for s in self.spans if s.name == "remap.get")
        if self.bucket_sizes:
            sizes = list(self.bucket_sizes.values())
            out["bucketing.buckets"] = len(sizes)
            out["bucketing.size_p50"] = float(np.percentile(sizes, 50))
            out["bucketing.size_max"] = max(sizes)
        out["pipeline.retained_matrix_mb"] = self.retained_mb
        match_total = sum(s.end - s.start for s in self.spans
                          if s.name == "pipeline.match")
        inside = 0.0
        for i, (s, t) in enumerate(zip(self.spans, own)):
            if s.name not in ORCHESTRATION and self._under_match(i):
                inside += t
        # numerator and denominator of trace.coverage
        out["trace.layer_self_s"] = inside
        out["trace.match_span_s"] = match_total
        return out

    def _under_match(self, index: int) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == "pipeline.match":
                return True
            parent = self.spans[parent].parent
        return False

    def span_records(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.bucket] for s in self.spans]


def _bucket_id(args) -> str | None:
    """The bucket of a ``_process_bucket((bucket, config, ...))`` call."""
    try:
        return args[0][0].bucket_id
    except (IndexError, TypeError, AttributeError):
        return None


# -- counts taken from a layer's arguments and result ------------------------


def _after_parse(tracer, args, records):
    tracer.count("corpus.records", len(records))


def _after_build(tracer, args, buckets):
    # a sweep plans the same buckets once per grid point
    tracer.bucket_sizes.update((b.bucket_id, len(b.members)) for b in buckets)


def _after_fallback(tracer, args, pairs):
    tracer.count("remap.fallback_pairs", len(pairs))


def _after_score(tracer, args, result):
    rel, _ = result
    eps = args[1].eps
    tracer.count("scoring.calls")
    tracer.count("scoring.pairs", rel.values.size)
    tracer.count("scoring.rel_floor_entries", int((rel.values <= eps).sum()))


def _after_weights(tracer, args, w):
    tracer.count("matcher.forbidden_entries", int(w.forbidden.sum()))
    tracer.count("matcher.weight_entries", w.forbidden.size)


def _after_solve(tracer, args, assignment):
    tracer.count("assignment.solves")
    tracer.count("assignment.objective", assignment.total_weight)


def _after_export(tracer, args, items):
    tracer.count("matcher.items", len(items))


def _after_write(tracer, args, text):
    tracer.count("matcher.output_bytes", len(text.encode("utf-8")))


def _after_run_match(tracer, args, result):
    retained = 0
    for br in result.buckets:
        for value in vars(br).values():
            array = getattr(value, "values", value)
            if isinstance(array, np.ndarray):
                retained += array.nbytes
    tracer.retained_mb = max(tracer.retained_mb, retained / 2 ** 20)
    tracer.match_items.append(result.items)


def _after_sweep(tracer, args, rows):
    tracer.count("diagnostics.sweep_points", len(rows))


_AFTER = {
    "corpus.parse": _after_parse,
    "bucketing.build": _after_build,
    "remap.fallback": _after_fallback,
    "scoring.score": _after_score,
    "matcher.weights": _after_weights,
    "assignment.solve": _after_solve,
    "matcher.export": _after_export,
    "matcher.write": _after_write,
    "pipeline.match": _after_run_match,
    "diagnostics.sweep": _after_sweep,
}
