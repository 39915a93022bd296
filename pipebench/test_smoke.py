"""Toy-scale smoke test of the benchmark itself.

    python3 -m pytest -q pipebench/test_smoke.py

Runs every workload at toy size, with and without tracing, and checks that
each metric named in BENCHMARK.json is emitted; then checks that the output
checks reject a corrupted chains file, changed reports and a stage that
exits non-zero.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TOY = dict(bands=(3, 1, 1), docs_per_topic=2, mentions_per_doc=4, chains_per_topic=2, hidden=(16, 8, 16))


def toy(name: str, **changes) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **{**TOY, **changes})


def declared(kind: str) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted(tmp_path, name, trace):
    result = run.run_workload(toy(name), seed=3, seconds=0, trace=trace, state=tmp_path)
    assert result["errors"] == []
    assert result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == declared(kind)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    # untraced runs repeat corpus 0; traced runs run every corpus twice
    assert result["attempted"] == 2 * len(run.stage_args(toy(name)))
    if trace:
        spans = json.loads((tmp_path / "spans" / f"{name}.json").read_text())["spans"]
        assert {s["name"] for s in spans} >= {"cli.main", "features.extract_split", "scoring.score_ceaf"}
        assert result["metrics"]["rollup.coverage"]["value"] > 0
    else:
        assert result["metrics"]["pipeline_s"]["value"] > 0
        # the stages are not spawned from the driver, so their peak RSS is
        # floored only at the small launcher's
        assert 0 < result["rss_floor_mb"] < result["metrics"]["peak_rss_mb"]["value"]
        assert result["rss_floor_mb"] < result["driver_rss_mb"]


def test_chain_check_rejects_corrupted_files(tmp_path):
    ids = ["m1", "m2", "m3"]
    path = tmp_path / "test.sys.chains"
    path.write_text("# tau=0.5\nm1\tm2\nm3\n")
    assert run.check_chains(path, ids) is None
    for corrupted in ("m1\tm2\n", "m1\tm2\nm3\tm1\n", "m1\tm2\nm3\nm9\n"):
        path.write_text(corrupted)
        assert run.check_chains(path, ids) is not None


def test_iteration_fails_on_corrupted_chains(tmp_path, monkeypatch):
    real = run.Launcher.run

    def drop_a_mention(self, name, argv, case, deadline):
        stage = real(self, name, argv, case, deadline)
        # after the last stage: the scorer would reject the file itself
        if name == "score_within":
            chains = case.dir / "out" / "cluster" / "test.sys.chains"
            lines = chains.read_text().splitlines()
            lines[-1] = "\t".join(lines[-1].split("\t")[1:])
            chains.write_text("\n".join(lines) + "\n")
        return stage

    monkeypatch.setattr(run.Launcher, "run", drop_a_mention)
    w = toy("unsupervised-wide")
    with run.Bench(w, 5, tmp_path, deadline=run.time.perf_counter() + 120) as bench:
        it = bench.iterate(bench.case(0), traced=False)
    assert it.error is not None and "missing" in it.error
    assert bench.failed == 1


def test_iteration_fails_when_outputs_change(tmp_path):
    w = toy("unsupervised-wide")
    with run.Bench(w, 5, tmp_path, deadline=run.time.perf_counter() + 120) as bench:
        case = bench.case(0)
        assert bench.iterate(case, traced=False).error is None
        reference = json.loads(case.ref.read_text())
        reference["report.tsv"] = reference["report.tsv"].replace("conll", "conll ")
        case.ref.write_text(json.dumps(reference))
        it = bench.iterate(case, traced=False)
    assert it.error is not None and "report.tsv" in it.error
    assert bench.failed == 1


def test_stages_hash_strings_with_the_corpus_seed(tmp_path):
    # set order (and with it float sums in the scorers) follows the hash seed
    probe = "open('hash.txt', 'w').write(str(hash('m1')))"
    w = toy("unsupervised-wide")
    with run.Bench(w, 5, tmp_path, deadline=run.time.perf_counter() + 120) as bench:
        case = bench.case(0)
        hashes = []
        for _ in range(2):
            assert bench.launcher.run("probe", [run.sys.executable, "-c", probe], case, bench.deadline).code == 0
            hashes.append((case.dir / "hash.txt").read_text())
    assert hashes[0] == hashes[1]
    assert run.child_env(case.seed)["PYTHONHASHSEED"] == str(case.seed)


def test_nonzero_stage_exit_fails_the_run(tmp_path):
    result = run.run_workload(toy("learned", variant="NO-SUCH-VARIANT"), seed=3, seconds=0,
                              trace=False, state=tmp_path)
    assert result["errors"] == ["corpus 0: stage features exited 2"]
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["metrics"] == {}


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "GENERATOR", run.ROOT / "no-such-generator.py")
    assert run.main(["--workload", "learned", "--seed", "1", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
