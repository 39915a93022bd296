import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import evcoref
from evcoref import cli, clustering, network
from evcoref.cli import _read_mentions_tsv, main
from evcoref.clustering import agglomerate, lemma_delta_init, tune_tau
from evcoref.config import (
    KEYS,
    LEARNED_VARIANTS,
    VARIANTS,
    load_config,
    normalize_variant,
    parse_topic_list,
)
from evcoref.corpus import Clustering, gold_clustering, load_corpus, split_by_topics, write_chains
from evcoref.errors import (
    ConfigError,
    EvcorefError,
    IntegrityError,
    ModelMismatchError,
    ParseError,
    SamplerError,
    ScoringMismatchError,
    TrainingDivergedError,
)
from evcoref.features import fit_tfidf
from evcoref.matio import HEADER_BYTES, MATRIX_MAGIC, read_matrix, write_matrix
from evcoref.network import NetParams, embed, load_checkpoint, save_checkpoint
from synthcorpus import write_corpus

BANDS = (4, 2, 2)


def small_corpus(tmp_path):
    return write_corpus(
        tmp_path,
        seed=11,
        band_topics=BANDS,
        docs_per_topic=3,
        mentions_per_doc=4,
        n_chains=16,
    )


def write_config(tmp_path, corpus_path, vec_path, out_dir, variant="CORE+CCE", extra=""):
    text = f"""
[paths]
corpus = {corpus_path}
word_vectors = {vec_path}
output = {out_dir}

[split]
train = 1-4
validation = 5-6
test = 7-8

[model]
variant = {variant}
lr = 0.003
epochs = 3
batch_size = 64
lambda1 = 2.0
lambda2 = 0.0
hidden1 = 16
embed = 8
hidden3 = 16
seed = 5
{extra}
"""
    if variant == "CCE":
        text = text.replace("lambda1 = 2.0\nlambda2 = 0.0\n", "")
    path = tmp_path / f"run_{variant.replace('+', '_')}.ini"
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One features+train run shared by the cluster/score tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, corpus_path, vec_path, out)
    assert main(["features", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    return tmp_path, cfg, out


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_topic_list_ranges():
    assert parse_topic_list("1-3,7") == {"1", "2", "3", "7"}
    assert parse_topic_list("4") == {"4"}
    with pytest.raises(ConfigError):
        parse_topic_list("9-2")


def test_variant_normalization():
    assert normalize_variant("core+cce") == "CORE+CCE"
    assert normalize_variant("lemma_delta") == "LEMMA-DELTA"
    for text in ("bogus", "LEMMA-D", "LEMMADELTA"):
        with pytest.raises(ConfigError, match="unknown variant"):
            normalize_variant(text)


def test_core_variant_gets_scaled_lr(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(
        "[paths]\ncorpus = x\n[split]\ntrain = 1\ntest = 2\n"
        "[model]\nvariant = CORE\nlambda1 = 1.0\n"
    )
    run = load_config(cfg_path)
    assert run.training.lr == pytest.approx(0.00085 * 0.1)
    assert run.training.use_cce is False


def test_cce_variant_rejects_lambdas(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(
        "[paths]\ncorpus = x\n[split]\ntrain = 1\ntest = 2\n"
        "[model]\nvariant = CCE\nlambda1 = 1.0\n"
    )
    with pytest.raises(ConfigError):
        load_config(cfg_path)


def test_variant_override_goes_through_config_checks(tmp_path, capsys):
    cfg = write_config(tmp_path, "corpus.tsv", "vectors.txt", tmp_path / "o")  # lambda1 = 2
    assert main(["train", "--config", str(cfg), "--variant", "CCE"]) == 2
    assert "CCE variant must not set lambda1/lambda2" in capsys.readouterr().err
    run = load_config(cfg, {"model": {"variant": "CORE"}})
    assert run.variant == "CORE"
    assert run.training.use_cce is False
    assert run.training.lr == pytest.approx(0.003)  # set in the file, so not scaled


@pytest.mark.parametrize(
    "section, key, value",
    [("cluster", "pool", "everywhere"), ("cluster", "eval_split", "train"), ("score", "mode", "within_doc")],
)
def test_a_bad_choice_in_the_config_is_exit_2_naming_the_value(tmp_path, capsys, section, key, value):
    extra = f"\n[{section}]\n{key} = {value}"
    cfg = write_config(tmp_path, "corpus.tsv", "vectors.txt", tmp_path / "o", extra=extra)
    assert main(["features", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key} must be " in err and f"got {value!r}" in err
    assert "Traceback" not in err


def test_readme_configuration_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    run = load_config(path)
    assert run.variant == "CORE+CCE" and run.training.epochs == 100
    # the paragraph on checked values states each key's requirement as KEYS does
    start = readme.index("These keys are checked when the file is read")
    paragraph = " ".join(readme[start : readme.index("\n\n", start)].split())
    for section, key, _, _, requirement in KEYS:
        assert f"`{key}` must be {requirement}" in paragraph, (section, key)


@pytest.mark.parametrize(
    "section, key, value, expected",
    [
        ("model", "lr", "5e-324", 5e-324),
        ("model", "epochs", "1", 1),
        ("model", "batch_size", "3", 3),
        ("model", "dropout", "0", 0.0),
        ("model", "dropout", "0.999", 0.999),
        ("model", "seed", "0", 0),
        ("model", "seed", str(2**64 - 1), 2**64 - 1),
        ("model", "lambda1", "0", 0.0),
        ("model", "lambda2", "0", 0.0),
        ("model", "hidden1", "1", 1),
        ("model", "embed", "1", 1),
        ("model", "hidden3", "1", 1),
        ("cluster", "pool", "global", "global"),
        ("cluster", "pool", "topic", "topic"),
        ("cluster", "eval_split", "test", "test"),
        ("cluster", "eval_split", "validation", "validation"),
        ("score", "mode", "combined", "combined"),
        ("score", "mode", "within-doc", "within-doc"),
    ],
)
def test_the_bounds_of_each_checked_key_are_accepted(tmp_path, section, key, value, expected):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[paths]\ncorpus = x\n[split]\ntrain = 1\ntest = 2\n[{section}]\n{key} = {value}\n")
    run = load_config(cfg)
    assert getattr(run.training if section == "model" else run, key) == expected


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", "0"),
        ("batch_size", "0"),
        ("batch_size", "2"),  # the sampler seeds three mentions
        ("dropout", "1.0"),
        ("dropout", "-0.1"),
        ("lr", "nan"),
        ("lr", "inf"),
        ("lr", "0"),
        ("hidden1", "0"),
        ("embed", "0"),
        ("hidden3", "0"),
        ("seed", "-1"),
        ("seed", str(2**64)),  # the checkpoint stores a u64
        ("lambda1", "nan"),
        ("lambda1", "-2.0"),
        ("lambda2", "inf"),
        ("lambda2", "-0.5"),
    ],
)
def test_out_of_range_model_value_is_exit_2(pipeline_dir, tmp_path, capsys, key, value):
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    shutil.copytree(src_out / "features", out / "features")
    cfg = write_config(tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out)
    text = cfg.read_text()
    line = re.compile(rf"^{key} = .*$", re.M)
    text = line.sub(f"{key} = {value}", text) if line.search(text) else text + f"{key} = {value}\n"
    cfg.write_text(text)
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"[model] {key} must be" in err and "Traceback" not in err
    assert not (out / "train").exists()


@pytest.mark.parametrize("key", ["tau", "delta"])
def test_non_numeric_threshold_is_exit_2(tmp_path, capsys, key):
    cfg = write_config(tmp_path, "corpus.tsv", "vectors.txt", tmp_path / "o")
    cfg.write_text(cfg.read_text() + f"\n[cluster]\n{key} = high\n")
    assert main(["cluster", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be a number" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("tau", "nan"), ("tau", "inf"), ("delta", "-inf")])
def test_non_finite_threshold_is_exit_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, "corpus.tsv", "vectors.txt", tmp_path / "o")
    cfg.write_text(cfg.read_text() + f"\n[cluster]\n{key} = {value}\n")
    assert main(["cluster", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"[cluster] {key} must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("train", "--seed", "-1", "[model] seed must be"),
        ("train", "--seed", str(2**64), "[model] seed must be"),
        ("cluster", "--tau", "nan", "[cluster] tau must be finite"),
        ("cluster", "--tau", "inf", "[cluster] tau must be finite"),
        ("cluster", "--delta", "nan", "[cluster] delta must be finite"),
        ("cluster", "--variant", "100%", "unknown variant '100%'"),
        ("score", "--mode", "within_doc", "[score] mode must be"),
        ("train", "--seed", "abc", "[model] seed must be an integer, got 'abc'"),
        ("train", "--seed", "1.5", "[model] seed must be an integer, got '1.5'"),
        ("cluster", "--tau", "abc", "[cluster] tau must be a number, got 'abc'"),
        ("cluster", "--delta", "abc", "[cluster] delta must be a number, got 'abc'"),
    ],
)
def test_out_of_range_override_is_exit_2(tmp_path, capsys, command, flag, value, message):
    cfg = write_config(tmp_path, "corpus.tsv", "vectors.txt", tmp_path / "o")
    assert main([command, "--config", str(cfg), flag, value]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_bad_interpolation_in_the_file_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "corpus.tsv", "vectors.txt", tmp_path / "o", variant="100%")
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "[model] variant" in err and "Traceback" not in err


def test_empty_validation_split_is_exit_2(tmp_path, capsys):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    cfg = write_config(tmp_path, corpus_path, vec_path, tmp_path / "o")
    cfg.write_text(cfg.read_text().replace("validation = 5-6", "validation = 9"))  # no topic 9
    assert main(["features", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "validation split has no mentions" in captured.err
    assert "Traceback" not in captured.err
    assert "epoch" not in captured.out  # refused before training, not after an epoch
    lemma = write_config(tmp_path, corpus_path, vec_path, tmp_path / "o", variant="LEMMA-DELTA")
    lemma.write_text(lemma.read_text().replace("validation = 5-6", "validation = 9"))
    assert main(["cluster", "--config", str(lemma)]) == 2  # delta is tuned on validation
    assert "no mentions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "variant, flags",
    [("LEMMA", []), ("LEMMA-DELTA", []), ("UNSUPERVISED", ["--tau", "0.5"])],
    ids=["LEMMA", "LEMMA-DELTA", "UNSUPERVISED"],
)
def test_empty_eval_split_is_exit_2(tmp_path, capsys, variant, flags):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant=variant)
    cfg.write_text(cfg.read_text().replace("test = 7-8", "test = 9"))  # no topic 9
    assert main(["features", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["cluster", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert "the test split has no mentions" in err and "Traceback" not in err
    assert not (out / "cluster").exists()


def test_score_on_empty_chain_files_is_exit_2(pipeline_dir, tmp_path, capsys):
    _, cfg, _ = pipeline_dir
    empty = tmp_path / "empty.chains"
    empty.write_text("# config_hash=0\n")
    capsys.readouterr()
    for mode in ("combined", "within-doc"):
        argv = ["score", "--config", str(cfg), "--gold", str(empty), "--sys", str(empty)]
        assert main([*argv, "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert "empty.chains names no mention" in err and "Traceback" not in err


def test_truncated_feature_matrix_is_exit_2(tmp_path, capsys):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, corpus_path, vec_path, out)
    assert main(["features", "--config", str(cfg)]) == 0
    matrix = out / "features" / "train.mat"
    matrix.write_bytes(matrix.read_bytes()[:-3])  # not a whole float64 short
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "train.mat" in err and "expected" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "variant, command, split",
    [
        ("UNSUPERVISED", ["cluster"], "validation"),  # tau tuned on validation
        ("UNSUPERVISED", ["cluster", "--tau", "0.5"], "test"),
        ("CORE+CCE", ["train"], "train"),
    ],
    ids=["cluster-tuned-tau", "cluster-fixed-tau", "train"],
)
def test_feature_rows_disagreeing_with_mentions_is_exit_2(tmp_path, capsys, variant, command, split):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant=variant)
    assert main(["features", "--config", str(cfg)]) == 0
    matrix = out / "features" / f"{split}.mat"
    full = read_matrix(matrix)
    write_matrix(matrix, full[:-2])
    capsys.readouterr()
    assert main([*command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{split}.mat" in err and f"{len(full) - 2} rows for the {len(full)} mentions" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "train_topics, message",
    [("9", "train split has no documents"), ("99", "the train split has 1")],
    ids=["no-train-document", "one-train-document"],
)
def test_train_split_too_small_for_the_document_models_is_exit_2(tmp_path, capsys, train_topics, message):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    with open(corpus_path, "a", encoding="utf-8") as corpus:  # topic 99: one document
        corpus.write("DOC\tsolo\t99\nTOK\t0\t0\tstorm\tstorm\nMEN\tsolo_m\tsolo_c\t0\n")
    cfg = write_config(tmp_path, corpus_path, vec_path, tmp_path / "o")
    cfg.write_text(cfg.read_text().replace("train = 1-4", f"train = {train_topics}"))
    capsys.readouterr()
    assert main(["features", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("rename", ["#{}", " "], ids=["comment", "blank"])
def test_blank_or_comment_like_mention_id_is_exit_2_at_features(tmp_path, capsys, rename):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("MEN\t"))
    _, mention_id, rest = lines[row].split("\t", 2)
    lines[row] = f"MEN\t{rename.format(mention_id)}\t{rest}"
    corpus_path.write_text("".join(lines), encoding="utf-8")
    cfg = write_config(tmp_path, corpus_path, vec_path, tmp_path / "o")
    capsys.readouterr()
    assert main(["features", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"corpus.tsv:{row + 1}: mention id" in err and "Traceback" not in err


def test_bad_mention_row_reports_its_line(tmp_path):
    path = tmp_path / "train.mentions.tsv"
    path.write_text("# config_hash=x seed=1\n# header\nm1\tc1\td1\t1\nm2\tc1\td1\n")
    with pytest.raises(ParseError, match="bad mention row") as err:
        _read_mentions_tsv(path)
    assert err.value.line_no == 4


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_word_vector_is_exit_2(tmp_path, capsys, bad):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    lines = vec_path.read_text().splitlines()
    row = len(lines) // 2
    parts = lines[row].split(" ")
    parts[2] = bad
    lines[row] = " ".join(parts)
    vec_path.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, corpus_path, vec_path, tmp_path / "o")
    assert main(["features", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"vectors.txt:{row + 1}: non-finite vector component" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_train_feature_is_exit_2_before_the_first_step(pipeline_dir, tmp_path, capsys, bad):
    _, _, src_out = pipeline_dir
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, corpus_path, vec_path, out)
    shutil.copytree(src_out / "features", out / "features")
    matrix = read_matrix(out / "features" / "train.mat")
    matrix[5, 11] = bad
    write_matrix(out / "features" / "train.mat", matrix)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "train feature row 5 " in captured.err and "column 11" in captured.err
    assert "Traceback" not in captured.err and "epoch" not in captured.out
    assert not (out / "train" / "checkpoint.ckpt").exists()


def test_non_finite_validation_feature_is_exit_2_before_training(pipeline_dir, tmp_path, capsys):
    cfg, ckpt = _learned_copy(pipeline_dir, tmp_path)
    ckpt.unlink()
    path = ckpt.parents[1] / "features" / "validation.mat"
    matrix = read_matrix(path)
    matrix[2, 3] = np.nan
    write_matrix(path, matrix)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "validation.mat:" in captured.err
    assert "validation feature row 2 " in captured.err and "column 3" in captured.err
    assert "Traceback" not in captured.err and "epoch" not in captured.out
    assert not ckpt.exists()


def _learned_copy(pipeline_dir, tmp_path):
    """A config over a copy of the shared features and checkpoint."""
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    cfg = write_config(tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out)
    for stage in ("features", "train"):
        shutil.copytree(src_out / stage, out / stage)
    return cfg, out / "train" / "checkpoint.ckpt"


def _pair_past_the_last_row(feats, split):
    """Append to the split's lemma-pair file a pair whose right row is one
    past the split's last mention row."""
    path = feats / f"{split}.lemma_pairs.mat"
    n = len(_read_mentions_tsv(feats / f"{split}.mentions.tsv"))
    write_matrix(path, np.vstack([read_matrix(path), [0.0, n, 0.0, 0.5]]))


@pytest.mark.parametrize("split", ["validation", "test"])
def test_seed_over_a_mention_the_features_lack_is_exit_2(pipeline_dir, tmp_path, capsys, split):
    # the lemma-delta seed is read from the split's lemma-pair file
    cfg, _ = _learned_copy(pipeline_dir, tmp_path)
    out = cfg.parent / "o"
    _pair_past_the_last_row(out / "features", split)
    capsys.readouterr()
    argv = ["cluster", "--config", str(cfg), "--variant", "CORE+CCE+LEMMA", "--delta", "0.3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{split}.lemma_pairs.mat" in err and "Traceback" not in err
    assert not (out / "cluster").exists()


@pytest.mark.parametrize(
    "variant, flags", [("LEMMA", []), ("LEMMA-DELTA", ["--delta", "0.3"])], ids=["LEMMA", "LEMMA-DELTA"]
)
def test_vectorless_seed_over_a_mention_the_features_lack_is_exit_2(
    pipeline_dir, tmp_path, capsys, variant, flags
):
    # the seed is written as the clustering, so it is checked before writing
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    feats = out / "features"
    shutil.copytree(src_out / "features", feats)
    cfg = write_config(tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out, variant=variant)
    _pair_past_the_last_row(feats, "test")
    capsys.readouterr()
    assert main(["cluster", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert "test.lemma_pairs.mat" in err and "Traceback" not in err
    assert not (out / "cluster").exists()


@pytest.mark.parametrize(
    "edit",
    ["missing", "3-columns", "5-columns", "nan", "inf", "fraction", "negative", "left-is-right", "right-is-n"],
)
def test_bad_lemma_pair_file_is_exit_2(pipeline_dir, tmp_path, capsys, edit):
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    shutil.copytree(src_out / "features", out / "features")
    cfg = write_config(tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out, variant="LEMMA-DELTA")
    path = out / "features" / "test.lemma_pairs.mat"
    pairs = read_matrix(path)
    n = len(_read_mentions_tsv(out / "features" / "test.mentions.tsv"))
    rows = {
        "nan": [0, 1, 0, np.nan], "inf": [0, np.inf, 0, 0.5], "fraction": [0.5, 1, 0, 0.5],
        "negative": [-1, 1, 0, 0.5], "left-is-right": [1, 1, 0, 0.5], "right-is-n": [0, n, 0, 0.5],
    }
    if edit == "missing":
        path.unlink()
    elif edit in rows:
        write_matrix(path, np.vstack([pairs, rows[edit]]))
    else:
        write_matrix(path, pairs[:, :3] if edit == "3-columns" else np.hstack([pairs, pairs[:, :1]]))
    capsys.readouterr()
    assert main(["cluster", "--config", str(cfg), "--delta", "0.3"]) == 2
    err = capsys.readouterr().err
    assert "test.lemma_pairs.mat" in err and "Traceback" not in err
    assert not (out / "cluster").exists()


@pytest.mark.parametrize("edit", ["cut-inside-b4", "one-extra-byte"])
def test_checkpoint_of_the_wrong_size_is_exit_2(pipeline_dir, tmp_path, capsys, edit):
    cfg, ckpt = _learned_copy(pipeline_dir, tmp_path)
    params, _ = network.load_checkpoint(ckpt)
    whole = ckpt.read_bytes()
    if edit == "cut-inside-b4":
        ckpt.write_bytes(whole[: len(whole) - 8 * params.b4.size // 2])
    else:
        ckpt.write_bytes(whole + b"\0")
    capsys.readouterr()
    assert main(["cluster", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    kind = "truncated" if edit == "cut-inside-b4" else "oversized"
    assert f"checkpoint.ckpt:1: {kind} checkpoint" in err and "Traceback" not in err


def test_checkpoint_in_the_old_layout_with_adam_moments_is_exit_2(pipeline_dir, tmp_path, capsys):
    cfg, ckpt = _learned_copy(pipeline_dir, tmp_path)
    params, meta = network.load_checkpoint(ckpt)
    # EVCOREF.CKPT.1: the same header plus a u64 Adam step count, then the
    # parameters and both moments
    old = b"EVCOREF.CKPT.1\n" + struct.pack("<5I", *params.dims)
    old += struct.pack("<IQQQ", meta["epoch"], meta["seed"], meta["config_hash"], 12)
    arrays = params.arrays()
    old += b"".join(a.astype("<f8").tobytes() for a in arrays + arrays + arrays)
    ckpt.write_bytes(old)
    capsys.readouterr()
    assert main(["cluster", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.ckpt" in err and "bad magic" in err and "CKPT.1" in err
    assert "Traceback" not in err
    assert not (ckpt.parents[1] / "cluster" / "test.sys.chains").exists()


def test_a_nan_checkpoint_weight_is_exit_2_at_the_similarities(pipeline_dir, tmp_path, capsys):
    cfg, ckpt = _learned_copy(pipeline_dir, tmp_path)
    params, meta = network.load_checkpoint(ckpt)
    params.b2[0] = np.nan  # every embedding, so every similarity, is NaN
    save_checkpoint(ckpt, params, epoch=meta["epoch"], seed=meta["seed"], config_hash=meta["config_hash"])
    capsys.readouterr()
    assert main(["cluster", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: non-finite similarity entries" in err and "Traceback" not in err
    assert not (ckpt.parents[1] / "cluster").exists()


def test_a_matrix_header_numpy_cannot_allocate_is_exit_2(pipeline_dir, tmp_path, capsys):
    # 2^63 rows of 0 columns: an empty payload passes the size check
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    shutil.copytree(src_out / "features", out / "features")
    cfg = write_config(tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out, variant="UNSUPERVISED")
    (out / "features" / "validation.mat").write_bytes(MATRIX_MAGIC + struct.pack("<QQ", 1 << 63, 0))
    capsys.readouterr()
    assert main(["cluster", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "validation.mat:1: header dimension" in err and "Traceback" not in err
    assert not (out / "cluster").exists()


def test_learned_cluster_reads_only_the_parameter_arrays(pipeline_dir, tmp_path, monkeypatch):
    cfg, ckpt = _learned_copy(pipeline_dir, tmp_path)
    params, _ = network.load_checkpoint(ckpt)
    header = len(network.CHECKPOINT_MAGIC) + 40
    read = []

    class Counted(io.FileIO):
        def readinto(self, buffer):
            read.append(super().readinto(buffer))
            return read[-1]

        def read(self, size=-1):
            data = super().read(size)
            read.append(len(data))
            return data

    monkeypatch.setattr(network, "open", lambda path, mode: Counted(path, "r"), raising=False)
    assert main(["cluster", "--config", str(cfg)]) == 0
    assert sum(read) == ckpt.stat().st_size == header + 8 * sum(a.size for a in params.arrays())


def test_missing_config_file_is_exit_2():
    assert main(["features", "--config", "/nonexistent.ini"]) == 2


def test_missing_word_vectors_is_exit_2(tmp_path):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    cfg = write_config(tmp_path, corpus_path, tmp_path / "missing.txt", tmp_path / "o")
    assert main(["features", "--config", str(cfg)]) == 2


def test_corpus_path_naming_a_directory_is_exit_2(tmp_path, capsys):
    _, vec_path, _ = small_corpus(tmp_path)
    cfg = write_config(tmp_path, tmp_path, vec_path, tmp_path / "o")
    assert main(["features", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Is a directory" in err and "Traceback" not in err


def _first_line(pattern, replacement):
    """An edit that rewrites the first line matching `pattern`."""
    return lambda text: re.sub(pattern, replacement, text, count=1, flags=re.M)


_REFUSALS = {
    # case: (command and flags, edited input, its edit, message, the stage's output directory)
    "missing-feature-matrix": (["train"], None, None, "train.mat; run the features stage first", "train"),
    "variant-without-training": (
        ["train", "--variant", "LEMMA"], None, None, "variant LEMMA has no training stage", "train"
    ),
    "missing-chains-file": (["score"], None, None, "missing chains file", "score"),
    "non-integer-topic-range": (
        ["features"], "config", _first_line(r"^train = 1-4$", "train = 1-x"),
        "bad topic range '1-x'", "features",
    ),
    "no-word-vectors": (
        ["features"], "config", _first_line(r"^word_vectors = .*\n", ""),
        "this command needs paths.word_vectors", "features",
    ),
    "unknown-split-preset": (
        ["features"], "config", _first_line(r"^\[split\]$", "[split]\npreset = ecb"),
        "unknown split preset 'ecb'", "features",
    ),
    "split-preset-with-topic-lists": (
        ["features"], "config", _first_line(r"^\[split\]$", "[split]\npreset = ecbplus"),
        "[split] preset = ecbplus takes no train, validation or test list", "features",
    ),
    "no-train-topics": (
        ["features"], "config", _first_line(r"^train = 1-4$", "train ="),
        "[split] needs train and test topics", "features",
    ),
    "core-with-both-lambdas-0": (
        ["features", "--variant", "CORE"], "config", _first_line(r"^lambda1 = 2.0$", "lambda1 = 0.0"),
        "CORE variant needs a nonzero lambda1 or lambda2", "features",
    ),
    "duplicate-document-id": (
        ["features"], "corpus", lambda text: text + re.search(r"^DOC\t.*\n", text, re.M).group(),
        "duplicate document id", "features",
    ),
    "doc-field-count": (
        ["features"], "corpus", _first_line(r"^(DOC\t.*)$", r"\1\textra"),
        "DOC record needs doc_id and topic_id", "features",
    ),
    "men-field-count": (
        ["features"], "corpus", _first_line(r"^(MEN\t.*)$", r"\1\textra"),
        "MEN record needs mention_id, chain_id, indices", "features",
    ),
    "empty-doc-id": (
        ["features"], "corpus", _first_line(r"^DOC\t[^\t]*\t", "DOC\t\t"), "empty doc_id or topic_id", "features"
    ),
    "empty-lemma": (
        ["features"], "corpus", _first_line(r"^(TOK\t.*\t)[^\t]*$", r"\1"), "empty lemma", "features"
    ),
    "vector-without-components": (
        ["features"], "vectors", lambda text: text + "lonely\n", "entry has no vector components", "features"
    ),
    "empty-vector-file": (["features"], "vectors", lambda text: "", "empty word-vector file", "features"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refused_input_is_exit_2_with_its_message_and_no_stage_output(pipeline_dir, tmp_path, capsys, case):
    argv, edited, edit, message, stage = _REFUSALS[case]
    src_tmp, _, _ = pipeline_dir
    inputs = {"corpus": tmp_path / "corpus.tsv", "vectors": tmp_path / "vectors.txt"}
    shutil.copy(src_tmp / "corpus.tsv", inputs["corpus"])
    shutil.copy(src_tmp / "vectors.txt", inputs["vectors"])
    out = tmp_path / "o"
    inputs["config"] = write_config(tmp_path, inputs["corpus"], inputs["vectors"], out)
    if edited is not None:
        inputs[edited].write_text(edit(inputs[edited].read_text()))
    capsys.readouterr()
    assert main([argv[0], "--config", str(inputs["config"]), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (out / stage).exists()


def _run_dir(pipeline_dir, run_dir, monkeypatch, variant="CORE+CCE"):
    """`run_dir` made a run of its own with relative paths and the current
    directory: the shared corpus, vectors and features, and the test split's
    gold chains as both chain files."""
    src_tmp, _, src_out = pipeline_dir
    for name in ("corpus.tsv", "vectors.txt"):
        shutil.copy(src_tmp / name, run_dir / name)
    shutil.copytree(src_out / "features", run_dir / "out" / "features")
    (run_dir / "out" / "cluster").mkdir()
    gold = cli._gold(_read_mentions_tsv(run_dir / "out" / "features" / "test.mentions.tsv"))
    for kind in ("gold", "sys"):
        write_chains(gold, run_dir / "out" / "cluster" / f"test.{kind}.chains", {"split": "test"})
    write_config(run_dir, "corpus.tsv", "vectors.txt", "out", variant=variant).rename(run_dir / "run.ini")
    monkeypatch.chdir(run_dir)


@pytest.mark.parametrize(
    "command, flag",
    [("train", "--variant"), ("score", "--mode"), ("score", "--gold"), ("train", "--seed"), ("cluster", "--tau")],
)
def test_an_empty_flag_value_is_exit_2_naming_the_flag(pipeline_dir, tmp_path, monkeypatch, capsys, command, flag):
    # an empty value is not an unset key: `--variant ""` would train a LEMMA run
    # as CORE+CCE, and `--mode ""` or `--gold ""` would score with the defaults
    _run_dir(pipeline_dir, tmp_path, monkeypatch, variant="LEMMA")
    before = sorted(Path("out").rglob("*"))
    assert main([command, "--config", "run.ini", flag, ""]) == 2
    err = capsys.readouterr().err
    assert f"{flag} is given an empty value" in err and "Traceback" not in err
    assert sorted(Path("out").rglob("*")) == before


@pytest.mark.parametrize(
    "command, name",
    [
        ("features", "corpus.tsv"),
        ("features", "vectors.txt"),
        ("features", "run.ini"),
        ("train", "out/features/train.mentions.tsv"),
        ("score", "out/cluster/test.gold.chains"),
    ],
)
def test_text_that_is_not_utf8_is_exit_2_naming_its_file_and_line(
    pipeline_dir, tmp_path, monkeypatch, capsys, command, name
):
    _run_dir(pipeline_dir, tmp_path, monkeypatch)
    path = Path(name)
    lines = path.read_bytes().splitlines(keepends=True)
    line_no = len(lines) // 2 + 1  # in the corpus, past the first block the reader decodes
    lines[line_no - 1] = b"\xff" + lines[line_no - 1]
    path.write_bytes(b"".join(lines))
    assert main([command, "--config", "run.ini"]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line_no}: not UTF-8 text" in err and "Traceback" not in err


_ERRORS = [
    # (raised error, exit code, stderr)
    (ParseError("corpus.tsv", 7, "bad record"), 2, "error: corpus.tsv:7: bad record"),
    (IntegrityError("broken invariant"), 2, "error: broken invariant"),
    (ConfigError("bad setting"), 2, "error: bad setting"),
    (ModelMismatchError("widths differ"), 4, "model/feature mismatch: widths differ"),
    (ScoringMismatchError("mentions differ"), 5, "scoring mismatch: mentions differ"),
    (TrainingDivergedError("loss is nan"), 3, "training failed: loss is nan"),
    (SamplerError("no pairs"), 3, "training failed: no pairs"),
    (OSError("unreadable"), 2, "error: unreadable"),
]


@pytest.mark.parametrize("error, code, stderr", _ERRORS, ids=[type(e).__name__ for e, _, _ in _ERRORS])
def test_each_error_class_exits_with_its_code_and_label(tmp_path, monkeypatch, capsys, error, code, stderr):
    assert set(EvcorefError.__subclasses__()) <= {type(e) for e, _, _ in _ERRORS}

    def fail(run):
        raise error

    monkeypatch.setattr(cli, "cmd_features", fail)
    cfg = write_config(tmp_path, "corpus.tsv", "vectors.txt", tmp_path / "o")
    assert main(["features", "--config", str(cfg)]) == code
    assert capsys.readouterr().err == stderr + "\n"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def test_features_writes_only_the_split_files(pipeline_dir):
    _, _, out = pipeline_dir
    written = sorted(p.relative_to(out / "features").as_posix() for p in (out / "features").rglob("*"))
    expected = [f"{name}.{ext}" for name in cli.SPLITS for ext in ("mat", "mentions.tsv")]
    expected += [f"{name}.lemma_pairs.mat" for name in ("validation", "test")]
    assert written == sorted(expected)


@pytest.mark.parametrize("variant", ["LEMMA", "LEMMA-DELTA"])
def test_lemma_cluster_needs_no_feature_models(pipeline_dir, tmp_path, variant):
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    shutil.copytree(src_out / "features", out / "features")
    assert not (out / "features" / "models").exists()
    cfg = write_config(tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out, variant=variant)
    assert main(["cluster", "--config", str(cfg)]) == 0
    assert _thresholds(out / "cluster" / "test.sys.chains").keys() == _thresholds_used(variant)


def test_features_outputs_and_idempotence(pipeline_dir):
    tmp_path, cfg, out = pipeline_dir
    feats = out / "features"
    for name in ("train", "validation", "test"):
        assert (feats / f"{name}.mat").exists()
        assert (feats / f"{name}.mentions.tsv").exists()
    first = (feats / "train.mat").read_bytes()
    assert main(["features", "--config", str(cfg)]) == 0
    assert (feats / "train.mat").read_bytes() == first


def test_vector_dimension_propagates_to_feature_width(pipeline_dir):
    from evcoref.features import feature_dim

    _, _, out = pipeline_dir
    matrix = read_matrix(out / "features" / "train.mat")
    # generator vectors are 8-dimensional
    assert matrix.shape[1] == feature_dim(8)


def test_features_stage_holds_no_whole_split_matrix(tmp_path, monkeypatch):
    # each split's rows go to its file a document at a time: over what the
    # stage holds before a split is extracted, its traced peak grows by less
    # than that split's matrix (the parent held the whole matrix until written)
    from evcoref import features

    corpus_path, vec_path, _ = small_corpus(tmp_path)
    cfg = write_config(tmp_path, corpus_path, vec_path, tmp_path / "o")
    grown = {}

    def extract_split(corpus, models, **kwargs):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = real(corpus, models, **kwargs)
        n = sum(len(doc.mentions) for doc in corpus.documents)
        grown[n] = (tracemalloc.get_traced_memory()[1] - held, 8 * n * models.dim)
        return result

    real = features.extract_split
    monkeypatch.setattr(features, "extract_split", extract_split)
    tracemalloc.start()
    try:
        assert main(["features", "--config", str(cfg)]) == 0
    finally:
        tracemalloc.stop()
    assert sorted(grown) == [24, 48]  # train has 48 mentions, validation and test 24 each
    for growth, matrix_bytes in grown.values():
        assert growth < matrix_bytes / 2


def test_train_stage_reaches_training_without_a_whole_train_matrix(pipeline_dir, tmp_path, monkeypatch):
    # train.mat is read in row blocks, twice: what the stage has held when
    # training starts is the validation matrix, the packed movable columns
    # and a block, never the n x width train matrix (nor its n x width mask)
    from evcoref import matio, train as train_module

    cfg, ckpt = _learned_copy(pipeline_dir, tmp_path)
    features = ckpt.parents[1] / "features"
    n, width = read_matrix(features / "train.mat").shape
    val_bytes = read_matrix(features / "validation.mat").nbytes
    monkeypatch.setattr(matio, "BLOCK_BYTES", 8 * 8 * width)  # 8 of the 48 rows a block
    peaks = []

    def train(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return real(*args, **kwargs)

    real = train_module.train
    monkeypatch.setattr(train_module, "train", train)
    tracemalloc.start()
    try:
        assert main(["train", "--config", str(cfg)]) == 0
    finally:
        tracemalloc.stop()
    [peak] = peaks
    assert peak - val_bytes < n * width * 8 / 2


@pytest.mark.parametrize("rows_kept", [0, 20, 47.5], ids=["header-only", "whole-rows", "mid-row"])
def test_a_train_matrix_cut_short_mid_write_is_exit_2(pipeline_dir, tmp_path, capsys, rows_kept):
    # what a features process stopped while streaming train.mat leaves: the
    # header declares every row, the payload holds only the first ones
    cfg, ckpt = _learned_copy(pipeline_dir, tmp_path)
    ckpt.unlink()
    path = ckpt.parents[1] / "features" / "train.mat"
    width = read_matrix(path).shape[1]
    path.write_bytes(path.read_bytes()[: HEADER_BYTES + int(rows_kept * width) * 8])
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "train.mat:1: expected" in captured.err and "Traceback" not in captured.err
    assert "epoch" not in captured.out and not ckpt.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [lines[0].split()[0] + " 9", *lines[1:]],
         "vectors.txt:2: vector length 8 != 9 from the header"),
        (lambda lines: lines[:-1], "vectors.txt:1: header count"),
    ],
    ids=["header-dim", "entry-missing"],
)
def test_word_vectors_disagreeing_with_their_header_are_exit_2_at_features(tmp_path, capsys, edit, message):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    vec_path.write_text("\n".join(edit(vec_path.read_text().splitlines())) + "\n")
    out = tmp_path / "o"
    cfg = write_config(tmp_path, corpus_path, vec_path, out)
    capsys.readouterr()
    assert main(["features", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (out / "features").exists()


def test_training_divergence_is_exit_3(pipeline_dir, tmp_path):
    src_tmp, _, _ = pipeline_dir
    corpus_path = src_tmp / "corpus.tsv"
    vec_path = src_tmp / "vectors.txt"
    out = tmp_path / "div_out"
    cfg = write_config(
        tmp_path, corpus_path, vec_path, out, extra="", variant="CORE+CCE"
    )
    text = cfg.read_text().replace("lr = 0.003", "lr = 1e80")
    cfg.write_text(text)
    assert main(["features", "--config", str(cfg)]) == 0
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg)]) == 3


def test_train_outputs(pipeline_dir):
    _, _, out = pipeline_dir
    assert (out / "train" / "checkpoint.ckpt").exists()
    log = (out / "train" / "train_log.tsv").read_text().splitlines()
    header = [l for l in log if not l.startswith("#")][0]
    assert header.split("\t") == [
        "epoch", "total", "cce", "attract", "repulse", "val_b3", "tau",
    ]
    assert len([l for l in log if not l.startswith("#")]) == 1 + 3  # header + epochs


def _thresholds(chains_path):
    """The delta and tau lines of a chain file's header."""
    header = [line[2:].split("=", 1) for line in chains_path.read_text().splitlines()
              if line.startswith("# ")]
    return {key: value for key, value in header if key in ("delta", "tau")}


def _thresholds_used(variant):
    """delta for the lemma-delta seeded variants, tau for those with vectors."""
    delta = {"delta"} if variant in ("LEMMA-DELTA", "CORE+CCE+LEMMA") else set()
    tau = set() if variant in ("LEMMA", "LEMMA-DELTA") else {"tau"}
    return delta | tau


@pytest.mark.parametrize(
    "variant",
    ["LEMMA", "LEMMA-DELTA", "UNSUPERVISED", "CORE+CCE", "CORE+CCE+LEMMA", "CCE", "CORE"],
)
def test_cluster_and_score_all_variants(pipeline_dir, variant):
    tmp_path, _, out = pipeline_dir
    corpus_path = tmp_path / "corpus.tsv"
    vec_path = tmp_path / "vectors.txt"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant=variant)
    assert main(["cluster", "--config", str(cfg)]) == 0
    assert (out / "cluster" / "test.sys.chains").exists()
    assert (out / "cluster" / "test.gold.chains").exists()
    tuned = _thresholds(out / "cluster" / "test.sys.chains")
    assert tuned.keys() == _thresholds_used(variant)
    assert all(0.0 <= float(value) <= 1.0 for value in tuned.values())
    assert main(["score", "--config", str(cfg)]) == 0
    report = (out / "score" / "report.tsv").read_text()
    assert report.startswith("measure\tR\tP\tF")
    assert main(["score", "--config", str(cfg), "--mode", "within-doc"]) == 0
    assert (out / "score" / "report_within.tsv").exists()


def record_reads_and_tuning(monkeypatch) -> list[str]:
    """The names of the matrices the cluster stage reads, in order, with
    "tuned" where tune_tau returns."""
    events = []

    def counted(path):
        events.append(path.name)
        return read_matrix(path)

    def tuned(*args, **kwargs):
        result = tune_tau(*args, **kwargs)
        events.append("tuned")
        return result

    monkeypatch.setattr(cli, "read_matrix", counted)
    monkeypatch.setattr(clustering, "tune_tau", tuned)
    return events


def test_learned_cluster_reads_each_matrix_once(pipeline_dir, monkeypatch):
    _, cfg, _ = pipeline_dir
    events = record_reads_and_tuning(monkeypatch)
    assert main(["cluster", "--config", str(cfg)]) == 0
    assert events == ["validation.mat", "tuned", "test.mat"]


def test_unsupervised_cluster_reads_the_eval_split_after_tuning(pipeline_dir, tmp_path, monkeypatch):
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    shutil.copytree(src_out / "features", out / "features")
    cfg = write_config(
        tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out, variant="UNSUPERVISED"
    )
    events = record_reads_and_tuning(monkeypatch)
    assert main(["cluster", "--config", str(cfg)]) == 0
    assert events == ["validation.mat", "tuned", "test.mat"]
    assert _thresholds(out / "cluster" / "test.sys.chains").keys() == {"tau"}


@pytest.mark.parametrize("variant", ["CORE+CCE", "CORE+CCE+LEMMA", "LEMMA-DELTA", "UNSUPERVISED"])
def test_validation_eval_split_is_read_and_embedded_once(pipeline_dir, tmp_path, monkeypatch, variant):
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    shutil.copytree(src_out / "features", out / "features")
    shutil.copytree(src_out / "train", out / "train")
    cfg = write_config(
        tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out, variant=variant,
        extra="\n[cluster]\neval_split = validation",
    )
    reads, embeds = [], []

    def counted(path):
        reads.append(path.name)
        return read_matrix(path)

    monkeypatch.setattr(cli, "read_matrix", counted)
    monkeypatch.setattr(evcoref.corpus, "read_matrix", counted)  # the lemma-pair files
    monkeypatch.setattr(network, "embed", lambda *a: embeds.append(1) or embed(*a))
    assert main(["cluster", "--config", str(cfg)]) == 0
    assert reads.count("validation.mat") == 1
    assert reads.count("validation.lemma_pairs.mat") == (variant in ("CORE+CCE+LEMMA", "LEMMA-DELTA"))
    assert len(reads) == 1 + reads.count("validation.lemma_pairs.mat")
    assert len(embeds) == (variant in LEARNED_VARIANTS)
    assert _thresholds(out / "cluster" / "validation.sys.chains").keys() == _thresholds_used(variant)


@pytest.mark.parametrize("variant", ["UNSUPERVISED", "CORE+CCE"])
def test_validation_eval_split_chains_match_library_calls(pipeline_dir, tmp_path, variant):
    """The cluster stage scales the one validation matrix it holds in place,
    for the tau search and the clustering both; its chain files, headers
    included, are those of the library calls on untouched copies."""
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    shutil.copytree(src_out / "features", out / "features")
    shutil.copytree(src_out / "train", out / "train")
    cfg = write_config(
        tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out, variant=variant,
        extra="\n[cluster]\neval_split = validation",
    )
    assert main(["cluster", "--config", str(cfg)]) == 0

    vectors = read_matrix(out / "features" / "validation.mat")
    if variant == "CORE+CCE":
        vectors = embed(load_checkpoint(out / "train" / "checkpoint.ckpt")[0], vectors)
    rows = _read_mentions_tsv(out / "features" / "validation.mentions.tsv")
    ids = [row[0] for row in rows]
    gold = Clustering.from_labels(ids, [row[1] for row in rows])
    tau, _ = tune_tau(vectors.copy(), ids, gold)
    run = load_config(cfg)
    meta = {"variant": variant, "split": "validation", "tau": tau,
            "config_hash": run.config_hash, "seed": run.training.seed}
    write_chains(agglomerate(ids, tau, vectors.copy()), tmp_path / "sys.chains", meta)
    write_chains(gold, tmp_path / "gold.chains", meta)
    for kind in ("sys", "gold"):
        written = (out / "cluster" / f"validation.{kind}.chains").read_bytes()
        assert written == (tmp_path / f"{kind}.chains").read_bytes()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "given",
    [{"tau": "0.5"}, {"delta": "0.3"}, {"tau": "0.5", "delta": "0.3"}],
    ids=["tau", "delta", "both"],
)
def test_cluster_header_writes_given_thresholds_verbatim(pipeline_dir, variant, given):
    tmp_path, _, out = pipeline_dir
    corpus_path, vec_path = tmp_path / "corpus.tsv", tmp_path / "vectors.txt"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant=variant)
    overrides = [arg for key, value in given.items() for arg in (f"--{key}", value)]
    assert main(["cluster", "--config", str(cfg), *overrides]) == 0
    header = _thresholds(out / "cluster" / "test.sys.chains")
    assert header.keys() == _thresholds_used(variant)
    for key in header.keys() & given.keys():
        assert header[key] == given[key]


def test_given_delta_seeds_the_validation_tau_search(pipeline_dir):
    tmp_path, _, out = pipeline_dir
    corpus_path = tmp_path / "corpus.tsv"
    vec_path = tmp_path / "vectors.txt"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant="CORE+CCE+LEMMA")
    assert main(["cluster", "--config", str(cfg), "--delta", "0.3"]) == 0
    run = load_config(cfg)
    topics = (run.train_topics, run.val_topics, run.test_topics)
    train, val, _ = split_by_topics(load_corpus(corpus_path), *topics)
    params, _ = load_checkpoint(out / "train" / "checkpoint.ckpt")
    val_emb = embed(params, read_matrix(out / "features" / "validation.mat"))
    ids = [row[0] for row in _read_mentions_tsv(out / "features" / "validation.mentions.tsv")]
    tfidf = fit_tfidf(train)
    tau, _ = tune_tau(val_emb, ids, gold_clustering(val), init=lemma_delta_init(val, tfidf, 0.3))
    assert _thresholds(out / "cluster" / "test.sys.chains") == {"delta": "0.3", "tau": str(tau)}


def test_learned_cluster_with_given_tau_reads_only_the_eval_matrix(pipeline_dir, monkeypatch):
    _, cfg, _ = pipeline_dir
    reads = []

    def counted(path):
        reads.append(path.name)
        return read_matrix(path)

    monkeypatch.setattr(cli, "read_matrix", counted)
    assert main(["cluster", "--config", str(cfg), "--tau", "0.5"]) == 0
    assert reads == ["test.mat"]


def test_score_gold_vs_gold_is_perfect(pipeline_dir, capsys):
    tmp_path, cfg, out = pipeline_dir
    assert main(["cluster", "--config", str(cfg)]) == 0
    gold = out / "cluster" / "test.gold.chains"
    assert main(
        ["score", "--config", str(cfg), "--gold", str(gold), "--sys", str(gold)]
    ) == 0
    report = (out / "score" / "report.tsv").read_text()
    for line in report.splitlines()[1:]:
        fields = line.split("\t")
        assert fields[-1] == "1.0000"


def test_score_mention_mismatch_is_exit_5(pipeline_dir):
    tmp_path, cfg, out = pipeline_dir
    assert main(["cluster", "--config", str(cfg)]) == 0
    gold = out / "cluster" / "test.gold.chains"
    bad = tmp_path / "bad.chains"
    bad.write_text("mXXX\n")
    assert main(
        ["score", "--config", str(cfg), "--gold", str(gold), "--sys", str(bad)]
    ) == 5


def test_within_doc_unknown_mention_error_does_not_depend_on_the_hash_seed(pipeline_dir, tmp_path):
    _, cfg, out = pipeline_dir
    assert main(["cluster", "--config", str(cfg)]) == 0
    gold = out / "cluster" / "test.gold.chains"
    known = next(line for line in gold.read_text().splitlines() if not line.startswith("#"))
    bad = tmp_path / "unknown.chains"
    bad.write_text("\t".join([known.split("\t")[0], "zz4", "zz2", "zz3"]) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(evcoref.__file__).parents[1]))
    argv = ["score", "--config", str(cfg), "--gold", str(bad), "--sys", str(bad), "--mode", "within-doc"]
    for hash_seed in ("1", "3", "4"):
        done = subprocess.run(
            [sys.executable, "-m", "evcoref.cli", *argv],
            env=dict(env, PYTHONHASHSEED=hash_seed), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 2
        assert "no document known for mention 'zz2'" in done.stderr, done.stderr


def test_chain_line_repeating_a_mention_is_exit_2(pipeline_dir, capsys):
    tmp_path, cfg, out = pipeline_dir
    assert main(["cluster", "--config", str(cfg)]) == 0
    gold = out / "cluster" / "test.gold.chains"
    lines = gold.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[row] += "\t" + lines[row].split("\t")[0]
    bad = tmp_path / "repeated.chains"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(
        ["score", "--config", str(cfg), "--gold", str(gold), "--sys", str(bad)]
    ) == 2
    err = capsys.readouterr().err
    assert f"repeated.chains:{row + 1}:" in err and "Traceback" not in err


def test_dimension_mismatch_is_exit_4(pipeline_dir, tmp_path):
    src_tmp, _, out = pipeline_dir
    corpus_path = src_tmp / "corpus.tsv"
    vec_path = src_tmp / "vectors.txt"
    bad_out = tmp_path / "bad_out"
    cfg = write_config(tmp_path, corpus_path, vec_path, bad_out)
    assert main(["features", "--config", str(cfg)]) == 0
    (bad_out / "train").mkdir(parents=True, exist_ok=True)
    shapes = [(7, 4), (4,), (4, 3), (3,), (3, 4), (4,), (4, 2), (2,)]
    params = NetParams(*[np.zeros(s) for s in shapes])
    save_checkpoint(bad_out / "train" / "checkpoint.ckpt", params, epoch=1, seed=0)
    assert main(["cluster", "--config", str(cfg)]) == 4  # at the validation embed
    assert main(["cluster", "--config", str(cfg), "--tau", "0.5"]) == 4  # at the eval embed
    assert not (bad_out / "cluster").exists()


def test_cluster_before_features_is_exit_2(tmp_path):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    cfg = write_config(tmp_path, corpus_path, vec_path, tmp_path / "fresh")
    assert main(["cluster", "--config", str(cfg)]) == 2


def test_cluster_is_deterministic(pipeline_dir):
    tmp_path, cfg, out = pipeline_dir
    assert main(["cluster", "--config", str(cfg)]) == 0
    first = (out / "cluster" / "test.sys.chains").read_bytes()
    assert main(["cluster", "--config", str(cfg)]) == 0
    assert (out / "cluster" / "test.sys.chains").read_bytes() == first


def test_tau_and_delta_overrides(pipeline_dir):
    tmp_path, _, out = pipeline_dir
    corpus_path = tmp_path / "corpus.tsv"
    vec_path = tmp_path / "vectors.txt"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant="LEMMA-DELTA")
    assert main(["cluster", "--config", str(cfg), "--delta", "0.5"]) == 0
    meta = (out / "cluster" / "test.sys.chains").read_text()
    assert "# delta=0.5" in meta


def _stage_runs(cfg, out, capsys, *argvs):
    """Each stage's standard output, then every file under `out`, after
    running `argvs` in order with an earlier run's outputs of those stages
    removed."""
    for stage in {argv[0] for argv in argvs}:
        shutil.rmtree(out / stage, ignore_errors=True)
    capsys.readouterr()
    stdout = []
    for argv in argvs:
        assert main([*argv, "--config", str(cfg)]) == 0, capsys.readouterr().err
        stdout.append(capsys.readouterr().out)
    return stdout, {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


_SCORES = (["score", "--mode", "combined"], ["score", "--mode", "within-doc"])


@pytest.mark.parametrize("variant", ["UNSUPERVISED", "CORE+CCE", "LEMMA", "LEMMA-DELTA", "CORE+CCE+LEMMA"])
def test_stages_after_features_do_not_read_the_corpus(pipeline_dir, tmp_path, capsys, variant):
    src_tmp, _, src_out = pipeline_dir
    corpus, out = tmp_path / "corpus.tsv", tmp_path / "o"
    shutil.copy(src_tmp / "corpus.tsv", corpus)
    shutil.copytree(src_out / "features", out / "features")
    cfg = write_config(tmp_path, corpus, src_tmp / "vectors.txt", out, variant=variant)
    argvs = [["train"]] * (variant in LEARNED_VARIANTS) + [["cluster"], *_SCORES]
    in_place = _stage_runs(cfg, out, capsys, *argvs)
    assert {"cluster/test.sys.chains", "score/report.tsv", "score/report_within.tsv"} <= in_place[1].keys()
    corpus.unlink()
    assert _stage_runs(cfg, out, capsys, *argvs) == in_place
    corpus.write_text("garbage\n")
    assert _stage_runs(cfg, out, capsys, *argvs) == in_place


@pytest.mark.parametrize("variant", ["UNSUPERVISED", "CORE+CCE"])
def test_full_pipeline_command(tmp_path, variant):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    out = tmp_path / "pipe_out"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant=variant)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert (out / "train" / "checkpoint.ckpt").exists() == (variant in LEARNED_VARIANTS)
    assert (out / "score" / "report.tsv").exists()
    assert (out / "score" / "report_within.tsv").exists()


# ---------------------------------------------------------------------------
# What each stage process imports
# ---------------------------------------------------------------------------

_LOADED = (
    "import json, sys; from evcoref.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('evcoref.')))); sys.exit(code)"
)


def _stage_modules(*argv) -> set[str]:
    """The `evcoref.*` modules a fresh process holds after running one stage."""
    env = dict(os.environ, PYTHONPATH=str(Path(evcoref.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_cluster_and_score_outputs_do_not_depend_on_the_hash_seed(pipeline_dir, tmp_path):
    cfg, _ = _learned_copy(pipeline_dir, tmp_path)
    out = cfg.parent / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(evcoref.__file__).parents[1]))
    options = ["--config", str(cfg), "--variant", "CORE+CCE+LEMMA"]
    outputs = []
    for hash_seed in ("1", "777"):
        for stage in ("cluster", "score"):
            shutil.rmtree(out / stage, ignore_errors=True)
        for argv in (["cluster"], ["score", "--mode", "combined"], ["score", "--mode", "within-doc"]):
            done = subprocess.run(
                [sys.executable, "-m", "evcoref.cli", *argv, *options],
                env=dict(env, PYTHONHASHSEED=hash_seed), capture_output=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
        outputs.append({
            p.relative_to(out).as_posix(): p.read_bytes()
            for stage in ("cluster", "score") for p in sorted((out / stage).iterdir())
        })
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "stage, variant, runs, unused",
    [
        ("features", "CORE+CCE", "features", {"network", "train", "clustering"}),
        ("cluster", "UNSUPERVISED", "clustering", {"network", "train"}),
        ("cluster", "CORE+CCE+LEMMA", "clustering", {"features", "train"}),
        ("score", "CORE+CCE", "scoring", {"network", "train", "features", "clustering"}),
    ],
    ids=["features", "cluster-unsupervised", "cluster-lemma-seeded", "score"],
)
def test_a_stage_process_imports_only_what_it_runs(
    pipeline_dir, tmp_path, stage, variant, runs, unused
):
    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    for name in ("features", "train"):
        shutil.copytree(src_out / name, out / name)
    corpus_path, vec_path = src_tmp / "corpus.tsv", src_tmp / "vectors.txt"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant=variant)
    modes = [None]
    if stage == "score":
        assert main(["cluster", "--config", str(cfg)]) == 0
        modes = ["combined", "within-doc"]
    for mode in modes:
        loaded = _stage_modules(stage, "--config", str(cfg), *(["--mode", mode] if mode else []))
        assert f"evcoref.{runs}" in loaded
        assert not loaded & {f"evcoref.{m}" for m in unused}, sorted(loaded)


# ---------------------------------------------------------------------------
# Robustness campaign: line edits of every stage input
# ---------------------------------------------------------------------------

# "\udcff" is written as the byte 0xff (surrogateescape), which is not UTF-8
_LINE_EDITS = ("delete", "duplicate", "swap", "truncate", "", "nan", "1e400", "-1", "x", "\udcff")
_BYTE_EDITS = ("truncate", "append", "magic")
_STAGE_INPUTS = {
    "features": ("corpus.tsv", "vectors.txt", "run.ini"),
    "train": tuple(f"out/features/{s}.{e}" for s in ("train", "validation") for e in ("mat", "mentions.tsv")),
    "cluster": (
        *(f"out/features/{s}.{e}" for s in ("test", "validation") for e in ("mat", "mentions.tsv")),
        "out/train/checkpoint.ckpt",
        *(f"out/features/{s}.lemma_pairs.mat" for s in ("test", "validation")),
    ),
    "score": ("out/cluster/test.sys.chains", "out/cluster/test.gold.chains", "out/features/test.mentions.tsv"),
}


def _edit_lines(text: str, edit: str, rng, sep: str) -> str:
    """`text` with one line deleted, duplicated, swapped with another or cut
    short, or with one of its `sep`-separated fields set to `edit`."""
    lines = text.splitlines(keepends=True)
    i = int(rng.integers(len(lines)))
    line = lines[i].rstrip("\n")
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        j = int(rng.integers(len(lines)))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "truncate":
        lines[i] = line[: int(rng.integers(len(line) + 1))] + "\n"
    else:
        fields = line.split(sep)
        fields[int(rng.integers(len(fields)))] = edit
        lines[i] = sep.join(fields) + "\n"
    return "".join(lines)


def _edit_bytes(data: bytes, edit: str, rng) -> bytes:
    """`data` cut short, with bytes appended, or with another magic."""
    if edit == "truncate":
        return data[: int(rng.integers(len(data)))]
    if edit == "append":
        return data + rng.bytes(int(rng.integers(1, 17)))
    return b"X" + data[1:]


def test_line_edits_of_any_stage_input_end_in_a_documented_exit_code(tmp_path, monkeypatch, capsys):
    # every path in run.ini is relative, so a copy of the directory is a
    # whole run of its own
    pristine = tmp_path / "pristine"
    pristine.mkdir()
    small_corpus(pristine)
    write_config(pristine, "corpus.tsv", "vectors.txt", "out", variant="CORE+CCE+LEMMA").rename(
        pristine / "run.ini"
    )
    monkeypatch.chdir(pristine)
    for stage in ("features", "train", "cluster"):
        assert main([stage, "--config", "run.ini"]) == 0
    rng = np.random.default_rng(2026)
    codes = []
    for stage, names in _STAGE_INPUTS.items():
        argvs = _SCORES if stage == "score" else ([stage],)
        for name in names:
            binary = name.endswith((".mat", ".ckpt"))
            for edit in _BYTE_EDITS if binary else _LINE_EDITS:
                work = tmp_path / "work"
                shutil.copytree(pristine, work)
                monkeypatch.chdir(work)
                path = Path(name)
                if binary:
                    path.write_bytes(_edit_bytes(path.read_bytes(), edit, rng))
                else:
                    sep = {".ini": "=", ".txt": " "}.get(path.suffix, "\t")
                    text = _edit_lines(path.read_text(), edit, rng, sep)
                    path.write_text(text, encoding="utf-8", errors="surrogateescape")
                for argv in argvs:
                    try:
                        codes.append(main([*argv, "--config", "run.ini"]))
                    except Exception as exc:
                        pytest.fail(f"{' '.join(argv)} after {edit or 'empty'!r} in {name}: {exc!r}")
                    assert codes[-1] in (0, 2, 3, 4, 5), (argv, name, edit)
                monkeypatch.chdir(tmp_path)
                shutil.rmtree(work)
                capsys.readouterr()
    assert {0, 2, 5} <= set(codes)


@pytest.mark.parametrize("variant", ["UNSUPERVISED", "CORE+CCE"])
@pytest.mark.parametrize("eval_split", ["test", "validation"])
def test_validation_vectors_are_released_once_tuned(pipeline_dir, tmp_path, monkeypatch, variant, eval_split):
    """The vectors the tau search ran on are freed before the eval split is
    clustered, unless the eval split is the validation split, whose vectors
    are clustered as they are."""
    import weakref

    from evcoref import clustering

    src_tmp, _, src_out = pipeline_dir
    out = tmp_path / "o"
    shutil.copytree(src_out / "features", out / "features")
    shutil.copytree(src_out / "train", out / "train")
    cfg = write_config(
        tmp_path, src_tmp / "corpus.tsv", src_tmp / "vectors.txt", out, variant=variant,
        extra=f"\n[cluster]\neval_split = {eval_split}",
    )
    tuned, clustered = [], []

    def tune_tau(vectors, *args, **kwargs):
        tuned.append(weakref.ref(vectors.rows))
        return real_tune_tau(vectors, *args, **kwargs)

    def agglomerate(ids, tau, vectors, **kwargs):
        clustered.append((tuned[0](), vectors.rows))
        return real_agglomerate(ids, tau, vectors, **kwargs)

    real_tune_tau, real_agglomerate = clustering.tune_tau, clustering.agglomerate
    monkeypatch.setattr(clustering, "tune_tau", tune_tau)
    monkeypatch.setattr(clustering, "agglomerate", agglomerate)
    assert main(["cluster", "--config", str(cfg)]) == 0
    [(validation, clustered_rows)] = clustered
    if eval_split == "test":
        assert validation is None
    else:
        assert validation is clustered_rows
