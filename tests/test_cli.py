import numpy as np
import pytest

from evcoref.cli import main
from evcoref.config import load_config, normalize_variant, parse_topic_list
from evcoref.errors import ConfigError
from evcoref.network import NetParams, AdamState, save_checkpoint
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
    with pytest.raises(ConfigError):
        normalize_variant("bogus")


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
    run = load_config(cfg, variant="CORE")
    assert run.variant == "CORE"
    assert run.training.use_cce is False
    assert run.training.lr == pytest.approx(0.003)  # set in the file, so not scaled


@pytest.mark.parametrize("key", ["tau", "delta"])
def test_non_numeric_threshold_is_exit_2(tmp_path, capsys, key):
    cfg = write_config(tmp_path, "corpus.tsv", "vectors.txt", tmp_path / "o")
    cfg.write_text(cfg.read_text() + f"\n[cluster]\n{key} = high\n")
    assert main(["cluster", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be a number" in err and "Traceback" not in err


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


def test_missing_config_file_is_exit_2():
    assert main(["features", "--config", "/nonexistent.ini"]) == 2


def test_missing_word_vectors_is_exit_2(tmp_path):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    cfg = write_config(tmp_path, corpus_path, tmp_path / "missing.txt", tmp_path / "o")
    assert main(["features", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


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
    from evcoref.matio import read_matrix

    _, _, out = pipeline_dir
    matrix = read_matrix(out / "features" / "train.mat")
    # generator vectors are 8-dimensional
    assert matrix.shape[1] == feature_dim(8)


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


@pytest.mark.parametrize(
    "variant", ["LEMMA", "LEMMA-DELTA", "UNSUPERVISED", "CORE+CCE", "CORE+CCE+LEMMA"]
)
def test_cluster_and_score_all_variants(pipeline_dir, variant):
    tmp_path, _, out = pipeline_dir
    corpus_path = tmp_path / "corpus.tsv"
    vec_path = tmp_path / "vectors.txt"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant=variant)
    assert main(["cluster", "--config", str(cfg)]) == 0
    assert (out / "cluster" / "test.sys.chains").exists()
    assert (out / "cluster" / "test.gold.chains").exists()
    assert main(["score", "--config", str(cfg)]) == 0
    report = (out / "score" / "report.tsv").read_text()
    assert report.startswith("measure\tR\tP\tF")
    assert main(["score", "--config", str(cfg), "--mode", "within-doc"]) == 0
    assert (out / "score" / "report_within.tsv").exists()


def test_score_gold_vs_gold_is_perfect(pipeline_dir, capsys):
    tmp_path, cfg, out = pipeline_dir
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
    gold = out / "cluster" / "test.gold.chains"
    bad = tmp_path / "bad.chains"
    bad.write_text("mXXX\n")
    assert main(
        ["score", "--config", str(cfg), "--gold", str(gold), "--sys", str(bad)]
    ) == 5


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
    save_checkpoint(
        bad_out / "train" / "checkpoint.ckpt",
        params,
        AdamState.for_params(params),
        epoch=1,
        seed=0,
    )
    assert main(["cluster", "--config", str(cfg)]) == 4


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


def test_full_pipeline_command(tmp_path):
    corpus_path, vec_path, _ = small_corpus(tmp_path)
    out = tmp_path / "pipe_out"
    cfg = write_config(tmp_path, corpus_path, vec_path, out, variant="UNSUPERVISED")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert (out / "score" / "report.tsv").exists()
    assert (out / "score" / "report_within.tsv").exists()
