"""Per-layer metrics from the spans of traced pipeline runs.

A span is one call of a public ``evcoref`` function, recorded by
``trace_stage.py``. Names are ``<module>.<function>.<quantity>``: ``s`` is
time inside the function summed over calls, ``self_s`` that time minus the
time of the traced functions it called, ``calls`` the number of calls.
Counts marked computed come from array shapes, not from timing, so they
repeat exactly:

- ``network.step_gflop``: matmul work of one train step, 2*m*n*k per
  product: forward, weight gradients, hidden-activation gradients and the
  batch-by-batch cosine products of the pairwise loss and its gradient.
- ``network.adam_step.bytes``: per step, every parameter read with its
  gradient and both moments, and the parameter and moments written back
  (7 float64 per parameter).
- ``kernels.merge_sequence.cells``: matrix cells scanned, k*k per merge step
  over k - 1 steps, summed over calls.
- ``kernels.lsap_min.n3``: n cubed summed over calls (Kuhn-Munkres bound).
- ``features.overlap_pairs``: harmonic-overlap evaluations of the
  comparative features (word and lemma, against document and pool).

The ``rollup.<module>.self_s`` metrics split the traced stages' wall time by
module; ``rollup.untraced_s`` is the rest (interpreter start, imports, exit)
so the roll-up plus it equals the stages' wall time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from trace_stage import MODULES


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    value: float | None
    stage: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def flatten(spans_by_stage: dict) -> list[Span]:
    """Spans of all stage processes of one pipeline, parents re-indexed."""
    out: list[Span] = []
    for stage, data in spans_by_stage.items():
        base = len(out)
        for name, start, end, parent, value in data["spans"]:
            out.append(Span(name, start, end, None if parent is None else base + parent, value, stage))
    return out


class Profile:
    """Time, self time, calls, sizes and children per span name."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        child_s = [0.0] * len(spans)
        for i, sp in enumerate(spans):
            if sp.parent is not None:
                self.children[sp.parent].append(i)
                child_s[sp.parent] += sp.seconds
        self.self_of = [sp.seconds - c for sp, c in zip(spans, child_s)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, sp in enumerate(spans):
            self.by_name[sp.name].append(i)

    def s(self, name: str) -> float:
        return sum(self.spans[i].seconds for i in self.by_name[name])

    def self_s(self, name: str) -> float:
        return sum(self.self_of[i] for i in self.by_name[name])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def values(self, name: str) -> list:
        return [self.spans[i].value for i in self.by_name[name]]

    def child_values(self, i: int, name: str) -> list:
        return [self.spans[c].value for c in self.children[i] if self.spans[c].name == name]

    def under(self, name: str, ancestor: str) -> list[int]:
        out = []
        for i in self.by_name[name]:
            p = self.spans[i].parent
            while p is not None and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            if p is not None:
                out.append(i)
        return out


def step_counts(sizes: dict) -> tuple[int, int]:
    """(matmul FLOPs, Adam bytes) of one train step; (0, 0) without a network."""
    if "network_dims" not in sizes:
        return 0, 0
    d, h1, e, h3, c = sizes["network_dims"]
    b = sizes["batch"]
    weights = d * h1 + h1 * e + e * h3 + h3 * c
    flop = 2 * b * weights  # forward
    flop += 2 * b * weights  # weight gradients
    flop += 2 * b * (h1 * e + e * h3 + h3 * c)  # gradients of hidden activations
    # loss_attract's cosine matrix, then core_embedding_grad's cosine matrix
    # and weighted sum of unit rows (every learned workload sets lambda1)
    flop += 3 * 2 * b * b * e
    params = weights + h1 + e + h3 + c
    return flop, 7 * 8 * params


def overlap_pairs(splits: dict, pool: str) -> int:
    total = 0
    for rows in splits.values():
        per_doc = defaultdict(int)
        per_topic = defaultdict(int)
        for _, _, doc, topic in rows:
            per_doc[doc] += 1
            per_topic[topic] += 1
        for _, _, doc, topic in rows:
            in_pool = len(rows) if pool == "global" else per_topic[topic]
            total += 2 * ((per_doc[doc] - 1) + (in_pool - 1))
    return total


def _time_calls(p: Profile, out: dict, names: list[str]) -> None:
    for name in names:
        out[f"{name}.s"] = p.s(name)
        out[f"{name}.calls"] = p.calls(name)


def pipeline_metrics(p: Profile, sizes: dict, w, splits: dict) -> dict:
    """Every span-derived metric of one traced pipeline."""
    v: dict = {}
    _time_calls(p, v, [f"features.{f}" for f in (
        "load_word_vectors", "fit_feature_models", "extract_split",
        "contextual_features", "comparative_features")])
    v["features.mentions"] = sum(p.values("features.extract_split"))
    v["features.overlap_pairs"] = overlap_pairs(splits, w.pool)

    _time_calls(p, v, [f"network.{f}" for f in (
        "forward_train", "forward_infer", "backward", "loss_total", "adam_step")])
    flop, adam_bytes = step_counts(sizes)
    steps = p.calls("network.adam_step")
    busy = p.s("network.forward_train") + p.s("network.loss_total") + p.s("network.backward")
    v["network.step_gflop"] = flop / 1e9
    v["network.adam_step.bytes"] = adam_bytes
    v["network.step_gflops_computed"] = flop * steps / busy / 1e9 if busy else 0.0
    adam_s = p.s("network.adam_step")
    v["network.adam_step.gbps_computed"] = adam_bytes * steps / adam_s / 1e9 if adam_s else 0.0
    v["network.save_checkpoint.s"] = p.s("network.save_checkpoint")
    v["network.load_checkpoint.s"] = p.s("network.load_checkpoint")

    v["train.train.s"] = p.s("train.train")
    v["train.sample_batch.s"] = p.s("train.sample_batch")
    v["train.steps"] = sizes.get("steps_per_epoch", 0) * sizes.get("epochs", 0)
    v["train.epochs"] = sizes.get("epochs", 0)
    v["train.validation_s"] = sum(
        p.spans[i].seconds
        for name in ("network.forward_infer", "clustering.tune_tau")
        for i in p.under(name, "train.train")
    )

    _time_calls(p, v, [f"clustering.{f}" for f in (
        "tune_tau", "tune_delta", "MergeRun.partition_at", "lemma_delta_init",
        "cosine_similarity_matrix", "agglomerate")])
    # one merge run never repeats a partition, so distinct sizes are distinct
    # partitions; lemma-delta partitions are nested in delta, likewise
    taus = [p.child_values(i, "clustering.MergeRun.partition_at") for i in p.by_name["clustering.tune_tau"]]
    deltas = [p.child_values(i, "clustering.lemma_delta_init") for i in p.by_name["clustering.tune_delta"]]
    v["clustering.tune_tau.taus"] = sum(len(t) for t in taus)
    v["clustering.tune_tau.distinct_partitions"] = sum(len(set(t)) for t in taus)
    v["clustering.tune_tau.distinct_partition_ratio"] = (
        v["clustering.tune_tau.distinct_partitions"] / v["clustering.tune_tau.taus"]
        if v["clustering.tune_tau.taus"] else 0.0
    )
    v["clustering.tune_delta.deltas"] = sum(len(d) for d in deltas)
    v["clustering.tune_delta.distinct_inits"] = sum(len(set(d)) for d in deltas)
    v["clustering.tune_delta.distinct_init_ratio"] = (
        v["clustering.tune_delta.distinct_inits"] / v["clustering.tune_delta.deltas"]
        if v["clustering.tune_delta.deltas"] else 0.0
    )
    ks = p.values("clustering.build_merge_run")
    v["clustering.build_merge_run.self_s"] = p.self_s("clustering.build_merge_run")
    v["clustering.build_merge_run.calls"] = len(ks)
    v["clustering.build_merge_run.k_sum"] = sum(ks)
    v["clustering.build_merge_run.k_max"] = max(ks, default=0)

    ks = p.values("kernels.merge_sequence")
    _time_calls(p, v, ["kernels.merge_sequence", "kernels.lsap_min"])
    v["kernels.merge_sequence.k_max"] = max(ks, default=0)
    v["kernels.merge_sequence.cells"] = sum((k - 1) * k * k for k in ks if k > 1)
    ns = p.values("kernels.lsap_min")
    v["kernels.lsap_min.n_max"] = max(ns, default=0)
    v["kernels.lsap_min.n_sum"] = sum(ns)
    v["kernels.lsap_min.n3"] = sum(n**3 for n in ns)

    _time_calls(p, v, [f"scoring.{f}" for f in (
        "score_b3", "score_muc", "score_ceaf", "score_blanc", "within_doc_projection")])
    v["scoring.score_ceaf.self_s"] = p.self_s("scoring.score_ceaf")
    v["scoring.score_ceaf.padded_max"] = max(p.values("scoring.score_ceaf"), default=0)

    _time_calls(p, v, ["corpus.load_corpus"])
    for name in ("matio.read_matrix", "matio.write_matrix"):
        v[f"{name}.s"] = p.s(name)
        v[f"{name}.bytes"] = sum(p.values(name))
    for stage in ("features", "train", "cluster", "score"):
        v[f"cli.cmd_{stage}.self_s"] = p.self_s(f"cli.cmd_{stage}")
    return v


def rollup(p: Profile, stages: list) -> tuple[dict, list[dict]]:
    """Self time per module over all spans, and a per-stage table showing
    that module self times plus untraced time make up each stage's wall."""
    v = {f"rollup.{m}.self_s": 0.0 for m in MODULES}
    table = []
    for stage in stages:
        modules = {m: 0.0 for m in MODULES}
        for i, sp in enumerate(p.spans):
            if sp.stage == stage.name:
                modules[sp.name.split(".")[0]] += p.self_of[i]
        covered = sum(modules.values())
        for m, t in modules.items():
            v[f"rollup.{m}.self_s"] += t
        table.append({"stage": stage.name, "wall_s": stage.seconds, "untraced_s": stage.seconds - covered,
                      "self_s": modules})
    wall = sum(row["wall_s"] for row in table)
    v["rollup.untraced_s"] = sum(row["untraced_s"] for row in table)
    v["rollup.coverage"] = (wall - v["rollup.untraced_s"]) / wall
    return v, table


def export_spans(path: Path, run_prefix: str, traced: list) -> None:
    """One file of all spans; a run id names the seed and corpus."""
    rows = []
    for it in traced:
        offset = len(rows)
        for i, sp in enumerate(flatten(it.spans)):
            rows.append({
                "run": f"{run_prefix}-c{it.case.index}", "stage": sp.stage, "id": offset + i, "name": sp.name,
                "start": sp.start, "end": sp.end,
                "parent": None if sp.parent is None else offset + sp.parent, "value": sp.value,
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"spans": rows}), encoding="utf-8")


def per_layer(w, sizes: dict, plain: list, traced: list, export: Path, run_prefix: str):
    """Median of each per-layer metric over the traced pipelines (one per
    corpus), the tracing overhead against the untraced pipelines of the same
    corpora, and the roll-up table of the last traced pipeline."""
    runs = []
    for it in traced:
        p = Profile(flatten(it.spans))
        values = pipeline_metrics(p, sizes, w, it.case.facts.splits)
        totals, table = rollup(p, it.stages)
        values.update(totals)
        values["trace.spans"] = len(p.spans)
        runs.append(values)
    out = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    out["kernels.USE_NUMBA"] = int(any(d["use_numba"] for it in traced for d in it.spans.values()))
    out["stage.train_s"] = statistics.median(it.seconds("train") for it in plain)
    out["trace.pipeline_s"] = statistics.median(it.pipeline_s for it in traced)
    out["trace.untraced_pipeline_s"] = statistics.median(it.pipeline_s for it in plain)
    out["trace.overhead_s"] = statistics.median(t.pipeline_s - u.pipeline_s for t, u in zip(traced, plain))
    export_spans(export, run_prefix, traced)
    return out, table
