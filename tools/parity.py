"""Byte-compare the pipeline outputs of two source trees on benchmark corpora.

    python3 tools/parity.py --parent DIR --change DIR --workload learned --seed 1 --corpora 3

For corpus i = 0 .. N-1 of ``--seed``, the corpus, word vectors and run
configuration are generated exactly as ``pipebench/run.py`` generates them.
The benchmark's stages (``features``, ``train`` for learned variants,
``cluster``, ``score --mode combined``, ``score --mode within-doc``) then
run once with each tree's ``src/`` on the package path, in the same
directory, one tree after the other, with the benchmark's per-corpus
``PYTHONHASHSEED`` and BLAS thread count. Every file a stage writes under
``out/``, every stage's standard output and every exit code are compared
byte for byte; a stage that exits non-zero counts as a difference even when
both trees fail alike. Exit status: 0 when all match, 1 otherwise.

``pipebench/run.py`` is imported, not copied, so the corpora are the ones
the benchmark measures; nothing under ``pipebench/`` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "pipebench"))

import run as pipebench  # noqa: E402


def run_stages(tree: Path, case, workload) -> tuple[list[tuple[str, int, bytes]], dict[str, bytes]]:
    """Every stage of `workload` on `case` with `tree`'s package: (stage,
    exit code, stdout) per stage run, then the files left under out/."""
    out = case.dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    env = pipebench.child_env(case.seed)
    env["PYTHONPATH"] = str(tree / "src")
    stages = []
    for name, args in pipebench.stage_args(workload):
        proc = subprocess.run(
            [sys.executable, "-c", pipebench.ENTRY] + args,
            cwd=case.dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        stages.append((name, proc.returncode, proc.stdout))
        if proc.returncode != 0:
            break
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return stages, files


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def compare(parent, change) -> list[str]:
    """One line per difference between two run_stages results."""
    (p_stages, p_files), (c_stages, c_files) = parent, change
    diffs = []
    for (name, p_code, p_out), (_, c_code, c_out) in zip(p_stages, c_stages):
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="source tree with src/evcoref")
    parser.add_argument("--change", required=True, type=Path, help="source tree with src/evcoref")
    parser.add_argument("--workload", required=True, choices=sorted(pipebench.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--corpora", required=True, type=int)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, tree in trees.items():
        if not (tree / "src" / "evcoref" / "cli.py").is_file():
            parser.error(f"--{label} {tree} has no src/evcoref")
    workload = pipebench.WORKLOADS[args.workload]

    failed = 0
    with tempfile.TemporaryDirectory(prefix="parity-") as state:
        bench = pipebench.Bench(workload, args.seed, Path(state), deadline=math.inf)
        bench.work.mkdir(parents=True)
        for index in range(args.corpora):
            case = bench.case(index)
            parent = run_stages(trees["parent"], case, workload)
            change = run_stages(trees["change"], case, workload)
            diffs = compare(parent, change)
            checked = len(change[0]) + len(change[1])
            label = f"{args.workload} seed {args.seed} corpus {index}"
            print(f"{label}: {'DIFFERS' if diffs else 'identical'} "
                  f"({len(change[0])} stages, {len(change[1])} files, {checked} outputs)")
            for line in diffs:
                print(f"  {line}")
            failed += bool(diffs)
    print(f"{failed} of {args.corpora} corpora differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
