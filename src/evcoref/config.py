"""Run configuration: INI-style file with one section per pipeline stage.

Topic lists accept comma-separated ids and inclusive numeric ranges
("1-35,40"); `preset = ecbplus` in [split] selects the standard topic
assignment. Model variants cover the three deterministic baselines and the
four learned configurations.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import ecbplus_default_split
from .errors import ConfigError

VARIANTS = (
    "CCE",
    "CORE",
    "CORE+CCE",
    "CORE+CCE+LEMMA",
    "LEMMA",
    "LEMMA-DELTA",
    "UNSUPERVISED",
)
LEARNED_VARIANTS = ("CCE", "CORE", "CORE+CCE", "CORE+CCE+LEMMA")

BATCH_SIZE = 272


@dataclass
class TrainConfig:
    lr: float = 0.00085
    epochs: int = 100
    batch_size: int = BATCH_SIZE
    lambda1: float = 0.0
    lambda2: float = 0.0
    dropout: float = 0.25
    seed: int = 0
    hidden1: int = 1000
    embed: int = 250
    hidden3: int = 1000
    use_cce: bool = True


def parse_topic_list(text: str) -> set[str]:
    out: set[str] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            try:
                lo, hi = part.split("-")
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"bad topic range {part!r}")
            if hi_i < lo_i:
                raise ConfigError(f"bad topic range {part!r}")
            out.update(str(t) for t in range(lo_i, hi_i + 1))
        else:
            out.add(part)
    return out


def normalize_variant(text: str) -> str:
    v = text.strip().upper().replace("_", "-").replace(" ", "")
    aliases = {"LEMMA-D": "LEMMA-DELTA", "LEMMADELTA": "LEMMA-DELTA"}
    v = aliases.get(v, v)
    if v not in VARIANTS:
        raise ConfigError(f"unknown variant {text!r}; choose from {', '.join(VARIANTS)}")
    return v


@dataclass
class RunConfig:
    corpus: Path
    output: Path
    word_vectors: Path | None
    train_topics: set[str]
    val_topics: set[str]
    test_topics: set[str]
    variant: str = "CORE+CCE"
    training: TrainConfig = field(default_factory=TrainConfig)
    tau: float | None = None
    delta: float | None = None
    pool: str = "global"
    eval_split: str = "test"
    mode: str = "combined"
    config_hash: int = 0

    def require_word_vectors(self) -> Path:
        if self.word_vectors is None:
            raise ConfigError("this command needs paths.word_vectors")
        return self.word_vectors


def _get(cfg: configparser.ConfigParser, section: str, key: str, default=None):
    if cfg.has_option(section, key):
        try:
            value = cfg.get(section, key).strip()
        except configparser.Error as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
        return value if value else default
    return default


def config_text_hash(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run configuration. `overrides` ({section: {key:
    value}}, None for no override) replaces values of the file before any is
    read, so they pass the same checks; the config hash stays the hash of
    the file text."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cfg.read_string(text)
        cfg.read_dict({  # "%%": an override is taken literally, never interpolated
            section: {k: str(v).replace("%", "%%") for k, v in values.items() if v is not None}
            for section, values in (overrides or {}).items()
        })
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")

    corpus = _get(cfg, "paths", "corpus")
    if corpus is None:
        raise ConfigError("missing [paths] corpus")
    output = _get(cfg, "paths", "output", "out")
    word_vectors = _get(cfg, "paths", "word_vectors")

    preset = _get(cfg, "split", "preset")
    if preset is not None:
        if preset != "ecbplus":
            raise ConfigError(f"unknown split preset {preset!r}")
        train_topics, val_topics, test_topics = ecbplus_default_split()
    else:
        train_topics = parse_topic_list(_get(cfg, "split", "train", "") or "")
        val_topics = parse_topic_list(_get(cfg, "split", "validation", "") or "")
        test_topics = parse_topic_list(_get(cfg, "split", "test", "") or "")
        if not train_topics or not test_topics:
            raise ConfigError("[split] needs train and test topics (or preset = ecbplus)")

    def f(section, key, default):
        raw = _get(cfg, section, key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}")

    def i(section, key, default):
        raw = _get(cfg, section, key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}")

    variant = normalize_variant(_get(cfg, "model", "variant", "CORE+CCE"))
    base = TrainConfig()
    lr = f("model", "lr", base.lr)
    if variant == "CORE" and _get(cfg, "model", "lr") is None:
        lr = base.lr * 0.1  # CORE-only default runs ten times slower
    training = TrainConfig(
        lr=lr,
        epochs=i("model", "epochs", base.epochs),
        batch_size=i("model", "batch_size", base.batch_size),
        lambda1=f("model", "lambda1", 0.0),
        lambda2=f("model", "lambda2", 0.0),
        dropout=f("model", "dropout", base.dropout),
        seed=i("model", "seed", base.seed),
        hidden1=i("model", "hidden1", base.hidden1),
        embed=i("model", "embed", base.embed),
        hidden3=i("model", "hidden3", base.hidden3),
        use_cce=variant not in ("CORE",),
    )

    pool = _get(cfg, "cluster", "pool", "global")
    if pool not in ("global", "topic"):
        raise ConfigError(f"[cluster] pool must be global or topic, got {pool!r}")
    eval_split = _get(cfg, "cluster", "eval_split", "test")
    if eval_split not in ("test", "validation"):
        raise ConfigError(f"[cluster] eval_split must be test or validation, got {eval_split!r}")
    mode = _get(cfg, "score", "mode", "combined")
    if mode not in ("combined", "within-doc"):
        raise ConfigError(f"[score] mode must be combined or within-doc, got {mode!r}")

    run = RunConfig(
        corpus=Path(corpus),
        output=Path(output),
        word_vectors=Path(word_vectors) if word_vectors else None,
        train_topics=train_topics,
        val_topics=val_topics,
        test_topics=test_topics,
        variant=variant,
        training=training,
        tau=f("cluster", "tau", None),
        delta=f("cluster", "delta", None),
        pool=pool,
        eval_split=eval_split,
        mode=mode,
        config_hash=config_text_hash(text),
    )
    _validate_model(run.training)
    _validate_lambdas(run)
    for key, value in (("tau", run.tau), ("delta", run.delta)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"[cluster] {key} must be finite, got {value}")
    return run


def _validate_model(training: TrainConfig) -> None:
    """[model] values the network and the batch sampler can run with."""
    if training.epochs < 1:
        raise ConfigError(f"[model] epochs must be >= 1, got {training.epochs}")
    if training.batch_size < 3:
        raise ConfigError(f"[model] batch_size must be >= 3, got {training.batch_size}")
    if not 0.0 <= training.dropout < 1.0:
        raise ConfigError(f"[model] dropout must be in [0, 1), got {training.dropout}")
    if not (math.isfinite(training.lr) and training.lr > 0.0):
        raise ConfigError(f"[model] lr must be finite and > 0, got {training.lr}")
    if not 0 <= training.seed < 2**64:  # the checkpoint stores it as a u64
        raise ConfigError(f"[model] seed must be in [0, 2**64), got {training.seed}")
    for key, value in (("lambda1", training.lambda1), ("lambda2", training.lambda2)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"[model] {key} must be finite and >= 0, got {value}")
    for key in ("hidden1", "embed", "hidden3"):
        if getattr(training, key) < 1:
            raise ConfigError(f"[model] {key} must be >= 1, got {getattr(training, key)}")


def _validate_lambdas(run: RunConfig) -> None:
    if run.variant == "CORE" and run.training.lambda1 == 0.0 and run.training.lambda2 == 0.0:
        raise ConfigError("CORE variant needs a nonzero lambda1 or lambda2")
    if run.variant == "CCE" and (run.training.lambda1 or run.training.lambda2):
        raise ConfigError("CCE variant must not set lambda1/lambda2")
