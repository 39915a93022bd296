"""Byte-compare the pipeline outputs of two source trees on benchmark corpora.

    python3 tools/parity.py --parent DIR --change DIR --workload learned --seed 1 --corpora 3
    python3 tools/parity.py --change DIR --threads 1,2 --workload learned --seed 1 --corpora 3

For corpus i = 0 .. N-1 of ``--seed``, the corpus, word vectors and run
configuration are generated exactly as ``pipebench/run.py`` generates them.
The benchmark's stages (``features``, ``train`` for learned variants,
``cluster``, ``score --mode combined``, ``score --mode within-doc``) then
run once with each tree's ``src/`` on the package path, in the same
directory, one tree after the other (the parent first on even corpora, the
change first on odd ones, so that neither tree's medians carry the bias of
always running first or second), with the benchmark's per-corpus
``PYTHONHASHSEED`` and BLAS thread count. Every file a stage writes under
``out/``, every stage's standard output and every exit code are compared
byte for byte; a stage that exits non-zero counts as a difference even when
both trees fail alike. The summary gives each tree's ``src/evcoref`` line
count (``wc -l src/evcoref/*.py``) next to the number of corpora that
differ, so a change's size shows in the run that checks its outputs. Exit
status: 0 when all match, 1 otherwise.

With ``--threads A,B`` the ``--change`` tree alone runs twice, with the BLAS
thread count (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS``) at A and then at B in place of the benchmark's, and the
same comparison lists the outputs that depend on the thread count; the
"parent" columns are the run at A and the "change" columns the run at B.

Next to the comparison, each stage's wall time, peak RSS and minor page
faults (``ru_maxrss`` and ``ru_minflt`` of the reaped process) are printed
for both trees, with their medians over the corpora at the end, so a change
that should save memory shows its effect per stage, and that no stage got
slower, in the run that checks its outputs. The wall time is taken in the
spawning process, from the stage's start to its exit. The last line gives each tree's workload peak, the largest stage
peak over all stages and corpora, as the benchmark's ``peak_rss_mb`` reads
a run. On Linux a child's ``ru_maxrss`` includes the peak RSS of the
process that spawned it, so each stage is spawned from a small process of
its own; that floor is printed too, and a stage that reads at the floor used
no more than it.

``pipebench/run.py`` is imported, not copied, so the corpora are the ones
the benchmark measures; nothing under ``pipebench/`` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "pipebench"))

import run as pipebench  # noqa: E402


# Runs one stage and writes [exit code, ru_maxrss KB, ru_minflt, own VmHWM
# KB, wall seconds] as JSON to its standard error. It is a small process of its own, so the
# floor under the stage's ru_maxrss is this process's peak, not that of this
# script, which holds every output it compares.
SPAWN = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
seconds = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
with open("/proc/self/status", encoding="ascii") as lines:
    hwm = next(int(line.split()[1]) for line in lines if line.startswith("VmHWM:"))
json.dump([proc.returncode, usage.ru_maxrss, usage.ru_minflt, hwm, seconds], sys.stderr)
"""


def run_stage(argv: list[str], cwd: Path, env: dict) -> tuple[int, bytes, float, int, float, float]:
    """(exit code, stdout, peak RSS MB, minor page faults, floor MB, wall
    seconds) of one stage, spawned through SPAWN."""
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN] + argv, cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    code, rss_kb, minflt, floor_kb, seconds = json.loads(proc.stderr)
    return code, proc.stdout, rss_kb / 1024.0, minflt, floor_kb / 1024.0, seconds


def run_stages(tree: Path, threads: int | None, case, workload) -> tuple[list[tuple], dict[str, bytes]]:
    """Every stage of `workload` on `case` with `tree`'s package, at
    `threads` BLAS threads (None: the benchmark's count): (stage, exit code,
    stdout, peak RSS MB, minor faults, floor MB, wall seconds) per stage run,
    then the files left under out/."""
    out = case.dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    env = pipebench.child_env(case.seed)
    env["PYTHONPATH"] = str(tree / "src")
    if threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
    stages = []
    for name, args in pipebench.stage_args(workload):
        stage = run_stage([sys.executable, "-c", pipebench.ENTRY] + args, case.dir, env)
        stages.append((name, *stage))
        if stage[0] != 0:
            break
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return stages, files


def package_lines(tree: Path) -> int:
    """Lines of the tree's src/evcoref/*.py, as `wc -l` totals them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "evcoref").glob("*.py"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def compare(parent, change) -> list[str]:
    """One line per difference between two run_stages results."""
    (p_stages, p_files), (c_stages, c_files) = parent, change
    diffs = []
    for (name, p_code, p_out, *_), (_, c_code, c_out, *_) in zip(p_stages, c_stages):
        if p_code != c_code or c_code != 0:
            diffs.append(f"{name}: exit {p_code} -> {c_code}")
        if p_out != c_out:
            diffs.append(f"{name}: stdout {digest(p_out)} -> {digest(c_out)}")
    if len(p_stages) != len(c_stages):
        diffs.append(f"stages run: {len(p_stages)} -> {len(c_stages)}")
    for path in sorted(p_files.keys() | c_files.keys()):
        p, c = p_files.get(path), c_files.get(path)
        if p != c:
            show = lambda b: "missing" if b is None else digest(b)
            diffs.append(f"out/{path}: {show(p)} -> {show(c)}")
    return diffs


def usage_lines(rows) -> list[str]:
    """One line per stage from (stage, parent (MB, faults, s), change (MB,
    faults, s)) rows."""
    return [
        f"  {name:<12} wall {p_s:6.3f} -> {c_s:6.3f} s"
        f"   peak RSS {p_mb:7.1f} -> {c_mb:7.1f} MB"
        f"   minor faults {p_flt:8.0f} -> {c_flt:8.0f}"
        for name, (p_mb, p_flt, p_s), (c_mb, c_flt, c_s) in rows
    ]


def thread_counts(text: str) -> tuple[int, int]:
    """The two positive thread counts of an "A,B" argument."""
    counts = tuple(int(part) for part in text.split(","))
    if len(counts) != 2 or min(counts) < 1:
        raise argparse.ArgumentTypeError(f"expected two positive counts A,B, got {text!r}")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, help="source tree with src/evcoref")
    parser.add_argument("--change", required=True, type=Path, help="source tree with src/evcoref")
    parser.add_argument("--threads", type=thread_counts, metavar="A,B",
                        help="run --change alone at A and at B BLAS threads (no --parent)")
    parser.add_argument("--workload", required=True, choices=sorted(pipebench.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--corpora", required=True, type=int)
    args = parser.parse_args(argv)
    if (args.parent is None) == (args.threads is None):
        parser.error("give either --parent or --threads")
    for label, tree in (("parent", args.parent), ("change", args.change)):
        if tree is not None and not (tree / "src" / "evcoref" / "cli.py").is_file():
            parser.error(f"--{label} {tree} has no src/evcoref")
    if args.threads is None:  # side -> (tree, BLAS threads)
        sides = {"parent": (args.parent.resolve(), None), "change": (args.change.resolve(), None)}
    else:
        sides = {side: (args.change.resolve(), n) for side, n in zip(("parent", "change"), args.threads)}
        print(f"one tree, {args.threads[0]} -> {args.threads[1]} BLAS threads")
    workload = pipebench.WORKLOADS[args.workload]

    failed = 0
    usage: dict[str, list] = {}  # stage -> [(parent (MB, faults, s), change (MB, faults, s))]
    floor = 0.0  # MB, the largest peak of a process that spawned a stage
    with tempfile.TemporaryDirectory(prefix="parity-") as state:
        bench = pipebench.Bench(workload, args.seed, Path(state), deadline=math.inf)
        bench.work.mkdir(parents=True)
        for index in range(args.corpora):
            case = bench.case(index)
            order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
            ran = {side: run_stages(*sides[side], case, workload) for side in order}
            parent, change = ran["parent"], ran["change"]
            diffs = compare(parent, change)
            checked = len(change[0]) + len(change[1])
            label = f"{args.workload} seed {args.seed} corpus {index}"
            print(f"{label}: {'DIFFERS' if diffs else 'identical'} "
                  f"({len(change[0])} stages, {len(change[1])} files, {checked} outputs)")
            for line in diffs:
                print(f"  {line}")
            usage_of = lambda stage: (stage[3], stage[4], stage[6])
            rows = [(p[0], usage_of(p), usage_of(c)) for p, c in zip(parent[0], change[0])]
            for line in usage_lines(rows):
                print(line)
            for name, p, c in rows:
                usage.setdefault(name, []).append((p, c))
            floor = max([floor] + [stage[5] for stage in parent[0] + change[0]])
            failed += bool(diffs)
    lines = [package_lines(sides[side][0]) for side in ("parent", "change")]
    print(f"{failed} of {args.corpora} corpora differ (src/evcoref: {lines[0]} -> {lines[1]} lines)")
    print(f"median over corpora (peak RSS floor, the spawning process's peak: {floor:.1f} MB):")
    median = lambda runs, side, i: statistics.median(run[side][i] for run in runs)
    rows = [
        (name, *[tuple(median(runs, side, i) for i in range(3)) for side in (0, 1)])
        for name, runs in usage.items()
    ]
    for line in usage_lines(rows):
        print(line)
    peak = lambda side: max((run[side][0] for runs in usage.values() for run in runs), default=0.0)
    print(f"workload peak RSS (largest stage over all corpora, as peak_rss_mb reads it): "
          f"{peak(0):.1f} -> {peak(1):.1f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
