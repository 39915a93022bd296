"""Run one evcoref CLI stage with a span around every public library function.

    python3 pipebench/trace_stage.py SPANS.json STAGE --config run.ini [...]

The package must be importable (``PYTHONPATH=src``). Before calling
``evcoref.cli.main`` this script wraps each public function of every
``evcoref`` module and rebinds it in every module namespace that imported it
by name (``evcoref.train.forward``, ``evcoref.clustering.score_b3``,
``evcoref.scoring.lsap_min``, ...), plus the ``MergeRun.partition_at`` method.
Spans stay in memory and are written to SPANS.json when the stage ends, as
``[name, start, end, parent_index, value]`` rows on the ``perf_counter``
clock; ``value`` is a size read from the call's arguments or result where one
is defined in ``SIZES``. The process exits with the stage's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = (
    "cli", "clustering", "config", "corpus", "features",
    "kernels", "matio", "network", "scoring", "train",
)

# Called once per mention pair (harmonic_overlap) or per mention inside the
# 100-delta scan (head_lemma): a span each would cost more than the work it
# measures. Their time counts as self time of the caller.
UNTRACED = {"features.harmonic_overlap", "clustering.head_lemma"}

# Sizes recorded on a span: f(args, kwargs, result) -> number.
SIZES = {
    "clustering.build_merge_run": lambda a, k, r: len(r.init_sets),
    "clustering.MergeRun.partition_at": lambda a, k, r: len(r),
    "clustering.lemma_delta_init": lambda a, k, r: len(r.chains),
    "kernels.merge_sequence": lambda a, k, r: len(a[0]),
    "kernels.lsap_min": lambda a, k, r: len(r),
    "scoring.score_ceaf": lambda a, k, r: max(len(a[0].chains), len(a[1].chains)),
    "features.extract_split": lambda a, k, r: len(r[0]),
    "matio.read_matrix": lambda a, k, r: r.nbytes,
    "matio.write_matrix": lambda a, k, r: 8 * a[1].size,
}


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "infer")
    return f"network.forward_{mode}"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)
        name_of = _forward_name if name == "network.forward" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            record = [label, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[4] = size(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> dict:
    """Wrap and rebind the package's public functions; returns the modules."""
    modules = {m: importlib.import_module(f"evcoref.{m}") for m in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        names: dict = {}
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                names.setdefault(obj, []).append(attr)
        for fn, attrs in names.items():
            # kernels binds one function to two names (merge_sequence and
            # merge_sequence_numpy); the short one is the one callers use
            name = f"{short}.{min(attrs, key=len)}"
            if name not in UNTRACED:
                wrappers[fn] = tracer.wrap(name, fn)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    merge_run = modules["clustering"].MergeRun
    merge_run.partition_at = tracer.wrap("clustering.MergeRun.partition_at", merge_run.partition_at)
    return modules


def main(argv: list[str]) -> int:
    spans_path, stage_argv = argv[0], argv[1:]
    tracer = Tracer()
    modules = install(tracer)
    try:
        return modules["cli"].main(stage_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump({"use_numba": bool(modules["kernels"].USE_NUMBA), "spans": tracer.spans}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
