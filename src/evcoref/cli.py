"""Command-line pipeline: features -> train -> cluster -> score.

Each stage reads its predecessors' files from the configured output
directory, so stages are independently re-runnable and cacheable. Only
`features` reads the corpus: `train` reads the train and validation feature
files, `cluster` the eval and validation feature files, their lemma-pair
files for the lemma seeds, and the checkpoint, and `score` the two chain files
and, within documents, the eval split's mention table. Exit codes: 0 success,
otherwise the code that the raised error's class in `errors.py` carries (2
for input/configuration errors), and 2 for a path that cannot be read.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import LEARNED_VARIANTS, RunConfig, load_config
from .corpus import (
    Clustering,
    Corpus,
    LemmaPairs,
    _text_lines,
    load_corpus,
    read_chains,
    split_by_topics,
    write_chains,
)
from .errors import ConfigError, EvcorefError, IntegrityError, ParseError
from .matio import MatrixReader, MatrixWriter, read_matrix, write_matrix

# A stage process loads only what it runs: each command imports the stage
# modules it calls (features, train, network, clustering, scoring), so
# `score` starts without the training code.
SPLITS = ("train", "validation", "test")


# ---------------------------------------------------------------------------
# Small text artifacts
# ---------------------------------------------------------------------------


def _write_mentions_tsv(path: Path, corpus: Corpus, mentions, run: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# config_hash={run.config_hash} seed={run.training.seed}\n")
        out.write("# mention_id\tchain_id\tdoc_id\ttopic_id\n")
        topic_of = {d.doc_id: d.topic_id for d in corpus.documents}
        for m in mentions:
            out.write(f"{m.id}\t{m.gold_chain}\t{m.doc_id}\t{topic_of[m.doc_id]}\n")


def _read_mentions_tsv(path: Path) -> list[tuple[str, str, str, str]]:
    rows = []
    for line_no, line in _text_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(path, line_no, f"bad mention row {line!r}")
        rows.append(tuple(parts))
    return rows


def _gold(rows) -> Clustering:
    return Clustering.from_labels([r[0] for r in rows], [r[1] for r in rows])


# ---------------------------------------------------------------------------
# Stage commands
# ---------------------------------------------------------------------------


def cmd_features(run: RunConfig) -> None:
    from . import features as feat

    wv = feat.load_word_vectors(run.require_word_vectors())
    topics = (run.train_topics, run.val_topics, run.test_topics)
    corpora = dict(zip(SPLITS, split_by_topics(load_corpus(run.corpus), *topics)))
    for name in SPLITS:
        summary = corpora[name].summary()
        print(f"{name}: " + " ".join(f"{k}={v}" for k, v in summary.items()))
    models = feat.fit_feature_models(corpora["train"], wv)

    out = run.output / "features"
    out.mkdir(parents=True, exist_ok=True)
    for name in SPLITS:
        # the rows go to the file a document at a time: no split's whole matrix is held
        n = sum(len(doc.mentions) for doc in corpora[name].documents)
        with MatrixWriter(out / f"{name}.mat", n, models.dim) as writer:
            _, mentions = feat.extract_split(corpora[name], models, pool=run.pool, out=writer)
        _write_mentions_tsv(out / f"{name}.mentions.tsv", corpora[name], mentions, run)
        if name != "train":  # the lemma seeds of the cluster stage, in mention-row order
            write_matrix(out / f"{name}.lemma_pairs.mat", LemmaPairs.of(corpora[name], models.tfidf).pairs)
    print(f"features written to {out}")


def _matrix_path(run: RunConfig, name: str) -> Path:
    path = run.output / "features" / f"{name}.mat"
    if not path.exists():
        raise ConfigError(f"missing {path}; run the features stage first")
    return path


def _mention_rows(matrix_path: Path, name: str, n_rows: int):
    """The split's mention table, refused unless it has a row per matrix row."""
    rows = _read_mentions_tsv(matrix_path.with_name(f"{name}.mentions.tsv"))
    if n_rows != len(rows):
        counts = f"{n_rows} rows for the {len(rows)} mentions of {name}.mentions.tsv"
        raise ParseError(matrix_path, 1, counts)
    return rows


def _refuse_non_finite(block: np.ndarray, first_row: int, matrix_path: Path, name: str) -> None:
    """A ParseError naming the first non-finite entry of `block`, rows
    `first_row`.. of the split's matrix."""
    finite = np.isfinite(block)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ParseError(
            matrix_path, 1,
            f"{name} feature row {first_row + row} (0-based, in {name}.mentions.tsv order) has the "
            f"non-finite value {float(block[row, col])!r} in column {col}",
        )


def _load_split(run: RunConfig, name: str):
    matrix_path = _matrix_path(run, name)
    matrix = read_matrix(matrix_path)
    rows = _mention_rows(matrix_path, name, len(matrix))
    _refuse_non_finite(matrix, 0, matrix_path, name)
    return matrix, rows


def _load_train_split(run: RunConfig):
    """The train split as `train` works on it, its movable columns packed
    (MovableInputs), and its mention rows. `train.mat` is read in row blocks
    twice, so no n x width matrix is held: movable_w1_rows finds the runs
    on the first pass, whose blocks are refused here first if non-finite,
    and MovableInputs.pack copies them on the second."""
    from .train import MovableInputs, movable_w1_rows

    matrix_path = _matrix_path(run, "train")
    with MatrixReader(matrix_path) as reader:
        rows = _mention_rows(matrix_path, "train", reader.rows)
        runs = movable_w1_rows(_finite_blocks(reader, "train"), reader.cols)
        inputs = MovableInputs.pack(reader.blocks(), reader.rows, reader.cols, runs)
    return inputs, rows


def _finite_blocks(reader: MatrixReader, name: str):
    """The reader's row blocks, each refused (_refuse_non_finite) before it
    is passed on."""
    first = 0
    for block in reader.blocks():
        _refuse_non_finite(block, first, reader.path, name)
        first += len(block)
        yield block


def cmd_train(run: RunConfig) -> None:
    from .network import save_checkpoint
    from .train import class_labels, train

    if run.variant not in LEARNED_VARIANTS:
        raise ConfigError(f"variant {run.variant} has no training stage")
    train_inputs, train_rows = _load_train_split(run)
    val_x, val_rows = _load_split(run, "validation")
    chain_ids = [chain_id for _, chain_id, _, _ in train_rows]
    labels, n_classes = class_labels(chain_ids)
    val_gold = _gold(val_rows)
    val_ids = [mention_id for mention_id, _, _, _ in val_rows]

    out = run.output / "train"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "train_log.tsv", "w", encoding="utf-8") as log_file:
        log_file.write(f"# config_hash={run.config_hash} seed={run.training.seed}\n")
        log_file.write("epoch\ttotal\tcce\tattract\trepulse\tval_b3\ttau\n")

        def progress(entry):
            loss = entry.loss
            log_file.write(
                f"{entry.epoch}\t{loss.total:.6f}\t{loss.cce:.6f}\t{loss.attract:.6f}"
                f"\t{loss.repulse:.6f}\t{entry.val_b3:.6f}\t{entry.tau:.6f}\n"
            )
            print(
                f"epoch {entry.epoch:3d} loss {loss.total:.4f} "
                f"val B3 {entry.val_b3:.4f} tau {entry.tau:.3f}"
            )

        result = train(
            train_inputs,
            labels,
            chain_ids,
            n_classes,
            run.training,
            val_features=val_x,
            val_mention_ids=val_ids,
            val_gold=val_gold,
            progress=progress,
        )

    save_checkpoint(
        out / "checkpoint.ckpt",
        result.best_params,
        result.best_epoch,
        run.training.seed,
        run.config_hash,
    )
    print(
        f"best epoch {result.best_epoch}: val B3 {result.best_b3:.4f} "
        f"tau {result.best_tau:.4f} -> {out / 'checkpoint.ckpt'}"
    )


def cmd_cluster(run: RunConfig) -> None:
    """Chains for the eval split. Every variant is single linkage from a seed
    partition (from the split's lemma pairs, at -inf for LEMMA and at delta
    for LEMMA-DELTA and CORE+CCE+LEMMA; singletons otherwise) over vectors
    (the raw features for UNSUPERVISED, the checkpoint's embeddings for
    learned variants); with no vectors the seed is the clustering. An unset
    delta, or else an unset tau, is tuned on the validation split, which is
    read only then, and before the eval split."""
    from . import clustering as clus

    eval_name = run.eval_split
    delta, tau = run.delta, run.tau
    delta_seeded = run.variant in ("LEMMA-DELTA", "CORE+CCE+LEMMA")
    lemma_seeded = delta_seeded or run.variant == "LEMMA"

    def seed(pairs) -> Clustering | None:
        """The partition single linkage starts from (None: singletons; LEMMA keeps every pair)."""
        return None if pairs is None else pairs.clustering_at(delta if delta_seeded else -np.inf)

    embed = None  # feature matrix -> the vectors that single linkage runs on
    if run.variant == "UNSUPERVISED":
        embed = clus.unit_rows  # the raw features, scaled where they were read
    elif run.variant in LEARNED_VARIANTS:
        from . import network as net

        ckpt = run.output / "train" / "checkpoint.ckpt"
        if not ckpt.exists():
            raise ConfigError(f"missing {ckpt}; run the train stage first")
        params, _ = net.load_checkpoint(ckpt)
        embed = lambda x: clus.unit_rows(net.embed(params, x))  # refuses another width

    def split(name: str):
        """(mention ids, gold chains, vectors or None, lemma pairs or None) of a
        split; the stage owns the vectors, so they are scaled to unit rows in
        place and the similarity makes no copy of them."""
        x, rows = _load_split(run, name)
        ids = [r[0] for r in rows]
        path = run.output / "features" / f"{name}.lemma_pairs.mat"
        pairs = LemmaPairs.read(path, ids) if lemma_seeded else None
        return ids, _gold(rows), None if embed is None else embed(x), pairs

    # one split's vectors at a time: validation only to tune, then the eval split
    val = None
    delta_unset = delta_seeded and delta is None
    if delta_unset or (embed is not None and tau is None):
        val_ids, val_gold, val_vectors, val_pairs = val = split("validation")
        if delta_unset:  # with vectors, tau is searched on each delta's seed
            delta, tuned_tau, score = clus.search_delta(val_pairs, val_gold, val_vectors)
            tuned = {"delta": delta, "tau": tuned_tau}
        else:
            tuned_tau, score = clus.tune_tau(val_vectors, val_ids, val_gold, init=seed(val_pairs))
            tuned = {"tau": tuned_tau}
        tau = tuned_tau if tau is None else tau
        chosen = " ".join(f"{k} {v:.4f}" for k, v in tuned.items() if v is not None)
        print(f"tuned {chosen} (validation B3 {score:.4f})")
        del val_vectors
        if eval_name != "validation":
            val = None  # the validation vectors die before the eval split is read
    eval_ids, gold, eval_vectors, eval_pairs = val or split(eval_name)
    if not eval_ids:
        raise IntegrityError(f"the {eval_name} split has no mentions to cluster")

    meta: dict = {"variant": run.variant, "split": eval_name}
    if delta_seeded:
        meta["delta"] = delta
    sys_clustering = init = seed(eval_pairs)
    if embed is not None:
        meta["tau"] = tau
        sys_clustering = clus.agglomerate(eval_ids, tau, eval_vectors, init=init)

    meta.update({"config_hash": run.config_hash, "seed": run.training.seed})
    out = run.output / "cluster"
    out.mkdir(parents=True, exist_ok=True)
    write_chains(sys_clustering, out / f"{eval_name}.sys.chains", meta)
    write_chains(gold, out / f"{eval_name}.gold.chains", meta)
    print(
        f"{eval_name}: {len(sys_clustering.chains)} system chains, "
        f"{len(gold.chains)} gold chains -> {out}"
    )


def cmd_score(
    run: RunConfig,
    gold_path: str | None = None,
    sys_path: str | None = None,
):
    from . import scoring

    out = run.output / "cluster"
    gold_path = gold_path or out / f"{run.eval_split}.gold.chains"
    sys_path = sys_path or out / f"{run.eval_split}.sys.chains"
    for p in (gold_path, sys_path):
        if not Path(p).exists():
            raise ConfigError(f"missing chains file {p}")
    gold = read_chains(gold_path)
    if not gold.chains:
        raise IntegrityError(f"gold chains file {gold_path} names no mention")
    sys_clustering = read_chains(sys_path)
    if run.mode == "within-doc":
        rows = _read_mentions_tsv(run.output / "features" / f"{run.eval_split}.mentions.tsv")
        doc_of = {mention_id: doc_id for mention_id, _, doc_id, _ in rows}
        gold = scoring.within_doc_projection(gold, doc_of)
        sys_clustering = scoring.within_doc_projection(sys_clustering, doc_of)

    rep = scoring.report(gold, sys_clustering)
    score_dir = run.output / "score"
    score_dir.mkdir(parents=True, exist_ok=True)
    name = "report_within.tsv" if run.mode == "within-doc" else "report.tsv"
    scoring.write_report(rep, score_dir / name)
    print(f"[{run.mode}]")
    print(scoring.format_report(rep), end="")


def cmd_pipeline(run: RunConfig) -> None:
    cmd_features(run)
    if run.variant in LEARNED_VARIANTS:
        cmd_train(run)
    cmd_cluster(run)
    cmd_score(replace(run, mode="combined"))
    cmd_score(replace(run, mode="within-doc"))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcoref",
        description="Event coreference chains from learned clustering-friendly embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("features", "train", "cluster", "score", "pipeline"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration (INI)")
        p.add_argument("--seed", help="override [model] seed")
        p.add_argument("--variant", help="override [model] variant")
        p.add_argument("--tau", help="override clustering threshold")
        p.add_argument("--delta", help="override lemma-delta threshold")
        if name == "score":
            p.add_argument("--gold", help="gold chains file")
            p.add_argument("--sys", help="system chains file")
            p.add_argument("--mode", help="override [score] mode")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, value in vars(args).items():
            if value == "":  # not an unset key: the file's value would be dropped
                raise ConfigError(f"--{flag} is given an empty value")
        run = load_config(args.config, {
            "model": {"seed": args.seed, "variant": args.variant},
            "cluster": {"tau": args.tau, "delta": args.delta},
            "score": {"mode": getattr(args, "mode", None)},
        })
        if args.command == "score":
            cmd_score(run, args.gold, args.sys)
        else:  # built per call, so a command rebound on the module is the one run
            {
                "features": cmd_features,
                "train": cmd_train,
                "cluster": cmd_cluster,
                "pipeline": cmd_pipeline,
            }[args.command](run)
    except EvcorefError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
