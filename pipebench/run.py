"""End-to-end benchmark of the evcoref pipeline on synthetic corpora.

    python3 pipebench/run.py --workload learned --seed 1 --seconds 44 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and the corpus generator from ``tests/synthcorpus.py``.

Load: a closed loop in one driver process. For corpus i = 0, 1, 2, ... the
run generates a corpus, word vectors and run configuration from
``(--seed, i)`` with ``synthcorpus.generate`` (the set-up), then runs the real
CLI stages ``features``, ``train`` (learned variants only), ``cluster``,
``score --mode combined`` and ``score --mode within-doc``, each as its own
process as a user would, one after another. It starts a new corpus while
that corpus should still end within ``--seconds``. Every corpus of a
workload has the same size. BLAS threads are pinned to ``min(2, nproc)``.
The stages are spawned by ``launch.py``, a small helper process, so that
their peak RSS is not floored at the driver's (see there).

Each stage time metric is the mean over the run's corpora. On a shared
2-vCPU VM a pure Python loop runs up to 1.8x slower for periods of 5 to 40 s,
and a run often sits in one such period. In six batches of ten seeds (at
earlier workload sizes), the spread across runs (interquartile range over
median) of the stage times was at most 0.21 with the mean, 0.26 with the
median corpus and 0.41 with the fastest corpus. ``setup_s`` is the median
over the run's set-ups, ``SETUP_REPEATS`` per corpus (a set-up takes 50 to
80 ms; with one per corpus its spread across ten seeds reached 0.26 on
``learned``, which runs only 4 or 5 corpora), ``peak_rss_mb`` the largest
stage RSS, and quality the mean over the corpora: a corpus's tuned tau falls
on one of a few plateaus, which a median of a few corpora follows and a mean
averages.

A stage invocation is one operation. It fails when it exits non-zero or its
outputs fail the checks: the system chains cover the eval split's mention ids
exactly once, and both report files and the chain-file header lines (tuned
tau/delta) are byte-identical to the first run of the same code, workload,
seed and corpus (kept under ``.pipebench/refs``). To make that check bite
within every run, corpus 0 is run once more at the end (a sample like the
others).

With ``--trace 1`` every corpus runs twice, untraced and then with each stage
under ``trace_stage.py``. The per-layer metrics come from the traced stages'
spans (``layers.py``), which are exported to
``.pipebench/spans/<workload>.json``; traced minus untraced pipeline time is
the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it give the environment, the input sizes and
a metric table; the full result goes to ``.pipebench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GENERATOR = ROOT / "tests" / "synthcorpus.py"

SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
ENTRY = "import sys; from evcoref.cli import main; sys.exit(main())"

# Shared by every workload: the paper's 300-d vectors (input width 6507),
# batch 272 and, for the learned variants, lambda1 = 2.
WV_DIM = 300
BATCH_SIZE = 272
LAMBDA1 = 2.0


@dataclass(frozen=True)
class Workload:
    """Corpus shape and model settings of one workload."""

    name: str
    variant: str
    bands: tuple[int, int, int]  # topics in train / validation / test
    docs_per_topic: int
    mentions_per_doc: int
    chains_per_topic: int
    pool: str
    epochs: int = 1
    hidden: tuple[int, int, int] = (1000, 250, 1000)
    tau: float | None = None  # None: tuned on validation by the cluster stage


WORKLOADS = {
    w.name: w
    for w in (
        # The paper network (input width 6507, 1000/250/1000, batch 272) does
        # most of the work; features, clustering and scoring stay small. Six
        # epochs (12 Adam steps) let it learn: CoNLL F1 is about 0.76 against
        # 0.54 at three and spreads half as much across seeds, so a broken
        # optimiser shows in conll_f1.
        Workload("learned", "CORE+CCE", (17, 4, 4), 4, 8, 8, "topic", epochs=6),
        # A tiny network; the cluster stage's 100-delta scan, each delta
        # seeding a tau search from the lemma-delta partition, dominates.
        Workload("lemma-seeded", "CORE+CCE+LEMMA", (3, 4, 4), 5, 10, 8, "global",
                 hidden=(64, 32, 64)),
        # No network: quadratic global-pool comparative features, one merge
        # run at k = n, and within-document CEAF over hundreds of chains.
        # tau is fixed: a tuned tau flips between two plateaus whose chain
        # counts (and CEAF sizes) differ by half from corpus to corpus.
        Workload("unsupervised-wide", "UNSUPERVISED", (6, 2, 8), 5, 10, 8, "global", tau=0.6),
    )
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, undeclared metrics)."""


# ---------------------------------------------------------------------------
# Set-up: corpus, vectors and configuration from (seed, corpus index)
# ---------------------------------------------------------------------------


def _sources():
    """Make the package and the corpus generator importable; returns the
    generator module."""
    if not GENERATOR.is_file() or not (SRC / "evcoref" / "cli.py").is_file():
        raise BenchError(f"run from a source checkout: need {GENERATOR} and {SRC / 'evcoref'}")
    for path in (str(SRC), str(GENERATOR.parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import synthcorpus

    return synthcorpus


def trains(w: Workload) -> bool:
    from evcoref.config import LEARNED_VARIANTS

    return w.variant in LEARNED_VARIANTS


def config_text(w: Workload, seed: int) -> str:
    t, v, s = w.bands
    h1, emb, h3 = w.hidden
    lambda1 = f"lambda1 = {LAMBDA1}\n" if trains(w) else ""
    tau = f"tau = {w.tau}\n" if w.tau is not None else ""
    return (
        "[paths]\ncorpus = corpus.tsv\nword_vectors = vectors.txt\noutput = out\n\n"
        f"[split]\ntrain = 1-{t}\nvalidation = {t + 1}-{t + v}\ntest = {t + v + 1}-{t + v + s}\n\n"
        f"[model]\nvariant = {w.variant}\n{lambda1}epochs = {w.epochs}\n"
        f"batch_size = {BATCH_SIZE}\nhidden1 = {h1}\nembed = {emb}\nhidden3 = {h3}\n"
        f"seed = {seed}\n\n"
        f"[cluster]\npool = {w.pool}\neval_split = test\n{tau}"
    )


@dataclass
class CorpusFacts:
    """Mentions of each split as (mention_id, chain_id, doc_id, topic_id)."""

    splits: dict

    @classmethod
    def parse(cls, text: str, w: Workload) -> "CorpusFacts":
        t, v, _ = w.bands
        splits = {"train": [], "validation": [], "test": []}
        doc = topic = None
        for line in text.splitlines():
            parts = line.split("\t")
            if parts[0] == "DOC":
                doc, topic = parts[1], parts[2]
            elif parts[0] == "MEN":
                n = int(topic)
                split = "train" if n <= t else "validation" if n <= t + v else "test"
                splits[split].append((parts[1], parts[2], doc, topic))
        return cls(splits)

    def ids(self, split: str) -> list[str]:
        return [m for m, _, _, _ in self.splits[split]]


@dataclass
class Case:
    """One generated corpus in its own directory."""

    index: int
    dir: Path
    facts: CorpusFacts
    seed: int  # of the generator, and the stages' PYTHONHASHSEED
    ref: Path  # first run's outputs for this code, workload, seed and corpus


# ---------------------------------------------------------------------------
# Stage processes
# ---------------------------------------------------------------------------


@dataclass
class StageRun:
    name: str
    seconds: float
    rss_mb: float
    code: int


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    # String hashing orders sets, and the scorers sum floats in set order, so
    # a score on a rounding tie (0.70825) prints as 0.7082 under one hash
    # seed and 0.7083 under another. The hash seed is an input like the
    # corpus: fixed per corpus, so the same seed reproduces every report.
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Launcher:
    """The ``launch.py`` process that spawns the stages, one at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.floor_mb = 0.0  # the launcher's own peak RSS: the floor of every stage's

    def run(self, name: str, argv: list[str], case: Case, deadline: float) -> StageRun:
        """One stage process; wall time from spawn to reap, peak RSS via wait4."""
        request = {"argv": argv, "cwd": str(case.dir), "env": child_env(case.seed), "log": str(case.dir / "stages.log"),
                   "timeout": max(1.0, deadline - time.perf_counter())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError(f"stage launcher exited {self.proc.wait()}")
        reply = json.loads(reply)
        self.floor_mb = max(self.floor_mb, reply["floor_kb"] / 1024.0)
        return StageRun(name, reply["seconds"], reply["rss_kb"] / 1024.0, reply["code"])

    def close(self) -> None:
        """Stop the launcher; a stage still running (after an error) is
        killed and reaped by it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


def stage_args(w: Workload) -> list[tuple[str, list[str]]]:
    stages = [("features", ["features"])]
    if trains(w):
        stages.append(("train", ["train"]))
    stages += [
        ("cluster", ["cluster"]),
        ("score", ["score", "--mode", "combined"]),
        ("score_within", ["score", "--mode", "within-doc"]),
    ]
    return [(name, args + ["--config", "run.ini"]) for name, args in stages]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_chains(path: Path, expected: list[str]) -> str | None:
    """None when the chains file lists every expected mention exactly once."""
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            for m in line.split("\t"):
                seen[m] = seen.get(m, 0) + 1
    repeated = sorted(m for m, n in seen.items() if n > 1)
    missing = sorted(set(expected) - seen.keys())
    unknown = sorted(seen.keys() - set(expected))
    if repeated or missing or unknown:
        return f"{path.name}: repeated {repeated[:3]}, missing {missing[:3]}, unknown {unknown[:3]}"
    return None


def read_outputs(out: Path) -> dict:
    chains = (out / "cluster" / "test.sys.chains").read_text(encoding="utf-8").splitlines()
    return {
        "header": [line for line in chains if line.startswith("#")],
        "chains": [line.split("\t") for line in chains if line and not line.startswith("#")],
        "report.tsv": (out / "score" / "report.tsv").read_text(encoding="utf-8"),
        "report_within.tsv": (out / "score" / "report_within.tsv").read_text(encoding="utf-8"),
    }


def check_against_reference(outputs: dict, ref: Path) -> str | None:
    """Compare the header and reports with the first run's; the first run
    records them."""
    observed = {k: outputs[k] for k in ("header", "report.tsv", "report_within.tsv")}
    if ref.exists():
        reference = json.loads(ref.read_text(encoding="utf-8"))
        changed = [k for k in reference if reference[k] != observed.get(k)]
        return f"outputs differ from the first run ({ref.name}): {changed}" if changed else None
    ref.parent.mkdir(parents=True, exist_ok=True)
    tmp = ref.with_suffix(".tmp")
    tmp.write_text(json.dumps(observed, indent=1), encoding="utf-8")
    os.replace(tmp, ref)
    return None


def source_digest() -> str:
    """Digest of the program and the corpus generator: 'the same code'."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [GENERATOR]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Pipeline runs
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    case: Case
    traced: bool
    stages: list = field(default_factory=list)
    error: str | None = None
    outputs: dict | None = None
    spans: dict = field(default_factory=dict)  # stage name -> spans file contents

    def seconds(self, *names: str) -> float:
        return sum(s.seconds for s in self.stages if s.name in names)

    @property
    def pipeline_s(self) -> float:
        return sum(s.seconds for s in self.stages)


class Bench:
    """Work directory, corpora and operation counts of one run."""

    def __init__(self, w: Workload, seed: int, state: Path, deadline: float):
        self.w, self.seed, self.deadline = w, seed, deadline
        self.work = state / "work" / f"{w.name}-s{seed}-{os.getpid()}"
        self.refs = state / "refs" / hashlib.sha256(f"{source_digest()}{w!r}".encode()).hexdigest()[:16]
        self.setup_times: list[float] = []
        self.attempted = self.failed = 0
        self.launcher: Launcher | None = None

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.launcher = Launcher()
        return self

    def __exit__(self, *exc):
        self.launcher.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def case(self, index: int) -> Case:
        """Generate corpus `index` of this seed, timing each set-up."""
        synthcorpus = _sources()
        seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
        w = self.w
        cdir = self.work / f"c{index}"
        cdir.mkdir()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            corpus, vectors, _ = synthcorpus.generate(
                seed=seed,
                band_topics=w.bands,
                docs_per_topic=w.docs_per_topic,
                mentions_per_doc=w.mentions_per_doc,
                n_chains=w.chains_per_topic * sum(w.bands),
                wv_dim=WV_DIM,
                n_signals=w.chains_per_topic * max(w.bands[1], w.bands[2]),
            )
            (cdir / "corpus.tsv").write_text(corpus, encoding="utf-8")
            (cdir / "vectors.txt").write_text(vectors, encoding="utf-8")
            (cdir / "run.ini").write_text(config_text(w, seed), encoding="utf-8")
            self.setup_times.append(time.perf_counter() - start)
        ref = self.refs / f"{w.name}-s{self.seed}-c{index}.json"
        return Case(index, cdir, CorpusFacts.parse(corpus, w), seed, ref)

    def iterate(self, case: Case, traced: bool) -> Iteration:
        """Run every stage on `case` and check the outputs."""
        it = Iteration(case, traced)
        out = case.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        for name, args in stage_args(self.w):
            spans_file = case.dir / f"spans-{name}.json"
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "trace_stage.py"), str(spans_file)] + args
            else:
                argv = [sys.executable, "-c", ENTRY] + args
            self.attempted += 1
            stage = self.launcher.run(name, argv, case, self.deadline)
            it.stages.append(stage)
            if stage.code != 0:
                it.error = f"corpus {case.index}: stage {name} exited {stage.code}"
                break
            if traced:
                it.spans[name] = json.loads(spans_file.read_text(encoding="utf-8"))
        else:
            it.error = check_chains(out / "cluster" / "test.sys.chains", case.facts.ids("test"))
            if it.error is None:
                it.outputs = read_outputs(out)
                it.error = check_against_reference(it.outputs, case.ref)
        shutil.rmtree(out, ignore_errors=True)
        if it.error is not None:
            self.failed += 1
        return it


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def conll(report: str) -> float:
    for line in report.splitlines():
        if line.startswith("conll\t"):
            return float(line.split("\t")[-1])
    raise ValueError("report has no conll line")


def end_to_end(setup_times: list[float], runs: list[Iteration]) -> dict:
    """Stage times and quality averaged over the run's corpora, peak RSS over
    all stages; setup_s is the median set-up."""

    def mean(f):
        return statistics.fmean(f(it) for it in runs)

    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": mean(lambda it: it.pipeline_s),
        "features_s": mean(lambda it: it.seconds("features")),
        "cluster_s": mean(lambda it: it.seconds("cluster")),
        "score_s": mean(lambda it: it.seconds("score", "score_within")),
        "peak_rss_mb": max(s.rss_mb for it in runs for s in it.stages),
        "conll_f1": mean(lambda it: conll(it.outputs["report.tsv"])),
        "conll_within_f1": mean(lambda it: conll(it.outputs["report_within.tsv"])),
    }


def input_sizes(w: Workload, it: Iteration) -> dict:
    """Sizes of one corpus (all corpora of a workload share them, except
    chain counts): the size at which the timings hold."""
    from evcoref.features import feature_dim

    splits = it.case.facts.splits
    sizes = {}
    for split, rows in splits.items():
        sizes[f"{split}.mentions"] = len(rows)
        sizes[f"{split}.chains"] = len({c for _, c, _, _ in rows})
    train_chains = [c for _, c, _, _ in splits["train"]]
    multi = sum(1 for c in set(train_chains) if train_chains.count(c) >= 2)
    sizes["input_width"] = width = feature_dim(WV_DIM)
    if trains(w):
        sizes["network_dims"] = [width, *w.hidden, multi + 1]
        sizes["batch"] = min(BATCH_SIZE, len(train_chains))
        sizes["steps_per_epoch"] = math.ceil(len(train_chains) / BATCH_SIZE)
        sizes["epochs"] = w.epochs
    doc_of = {m: d for m, _, d, _ in splits["test"]}
    sizes["test.sys_chains"] = len(it.outputs["chains"])
    # within-document scoring splits chains by document; CEAF pads its
    # assignment to the larger of these two counts
    sizes["within_doc.gold_chains"] = len({(d, c) for _, c, d, _ in splits["test"]})
    sizes["within_doc.sys_chains"] = sum(len({doc_of[m] for m in chain}) for chain in it.outputs["chains"])
    return sizes


def emit(values: dict, trace: bool) -> dict:
    """Attach the units declared in BENCHMARK.json; a metric missing on
    either side is an error, so the two never drift apart."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if names != set(values):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def environment() -> dict:
    from evcoref import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,  # None outside a git checkout; source_sha256 still names the code
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_path": "numba" if kernels.USE_NUMBA else "numpy",
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, state: Path) -> dict:
    """Run one benchmark and return the full result (see module docstring)."""
    import layers

    _sources()  # fail before any work when the sources are missing
    deadline = time.perf_counter() + RUN_DEADLINE_S
    with Bench(w, seed, state, deadline) as bench:
        plain: list[Iteration] = []
        traced: list[Iteration] = []
        start = time.perf_counter()
        longest = 0.0
        cases = []
        while True:
            began = time.perf_counter()
            cases.append(bench.case(len(cases)))
            plain.append(bench.iterate(cases[-1], traced=False))
            if trace and plain[-1].error is None:
                traced.append(bench.iterate(cases[-1], traced=True))
            longest = max(longest, time.perf_counter() - began)
            failed = any(it.error for it in plain + traced)
            # start another corpus only if it, and the final repeat of
            # corpus 0, should end within the measuring time
            room = longest * (1 if trace else 2)
            if failed or time.perf_counter() - start + room > seconds:
                break
        if not trace and not failed:
            plain.append(bench.iterate(cases[0], traced=False))
        errors = [it.error for it in plain + traced if it.error is not None]
        result = {
            "workload": asdict(w),
            "seed": seed,
            "trace": trace,
            "env": environment(),
            "corpora": len(cases),
            # every stage's peak RSS includes the launcher's; the driver's is not in it
            "rss_floor_mb": bench.launcher.floor_mb,
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "load": "closed loop: 1 driver process, stage processes one after another",
            "stage_seconds": [
                {"corpus": it.case.index, "traced": it.traced, **{s.name: s.seconds for s in it.stages}}
                for it in plain + traced
            ],
            "errors": errors,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {},
        }
        if errors:
            return result
        result["sizes"] = input_sizes(w, plain[0])
        if trace:
            export = state / "spans" / f"{w.name}.json"
            values, result["rollup"] = layers.per_layer(
                w, result["sizes"], plain, traced, export, f"{w.name}-s{seed}"
            )
        else:
            values = end_to_end(bench.setup_times, plain)
        result["metrics"] = emit(values, trace)
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    state = ROOT / ".pipebench"
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), state)
    except BenchError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 2
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("env", "corpora", "rss_floor_mb", "driver_rss_mb", "load")}))
    print(json.dumps({"sizes": result.get("sizes")}))
    for row in result.get("rollup", []):
        print(json.dumps({"rollup": row}))
    for error in result["errors"]:
        print(f"FAILED: {error}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:48s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
