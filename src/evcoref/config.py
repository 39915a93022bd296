"""Run configuration: INI-style file with one section per pipeline stage.

Topic lists accept comma-separated ids and inclusive numeric ranges
("1-35,40"); `preset = ecbplus` in [split] selects the standard topic
assignment, and no list may be given with it. Model variants cover the three
deterministic baselines and the four learned configurations.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import _text_lines, ecbplus_default_split
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

# Every checked key, once: (section, key, type, the values it accepts, the
# requirement an error prints). Its default is its TrainConfig or RunConfig
# field. Rules across keys (a variant's lambdas, CORE's lr) keep their own code.
KEYS = (
    ("model", "lr", float, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0"),
    ("model", "epochs", int, lambda v: v >= 1, ">= 1"),
    # the sampler seeds every batch with a same-chain pair and one other mention
    ("model", "batch_size", int, lambda v: v >= 3, ">= 3"),
    ("model", "lambda1", float, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
    ("model", "lambda2", float, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
    ("model", "dropout", float, lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    # the checkpoint stores the seed as a u64
    ("model", "seed", int, lambda v: 0 <= v < 2**64, "in [0, 2**64)"),
    ("model", "hidden1", int, lambda v: v >= 1, ">= 1"),
    ("model", "embed", int, lambda v: v >= 1, ">= 1"),
    ("model", "hidden3", int, lambda v: v >= 1, ">= 1"),
    ("cluster", "tau", float, math.isfinite, "finite"),
    ("cluster", "delta", float, math.isfinite, "finite"),
    ("cluster", "pool", str, lambda v: v in ("global", "topic"), "global or topic"),
    ("cluster", "eval_split", str, lambda v: v in ("test", "validation"), "test or validation"),
    ("score", "mode", str, lambda v: v in ("combined", "within-doc"), "combined or within-doc"),
)
_TYPE_NAMES = {float: "a number", int: "an integer"}


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
    text = "".join(line for _, line in _text_lines(path))
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
        if any(_get(cfg, "split", key) for key in ("train", "validation", "test")):
            raise ConfigError("[split] preset = ecbplus takes no train, validation or test list")
        train_topics, val_topics, test_topics = ecbplus_default_split()
    else:
        train_topics = parse_topic_list(_get(cfg, "split", "train", "") or "")
        val_topics = parse_topic_list(_get(cfg, "split", "validation", "") or "")
        test_topics = parse_topic_list(_get(cfg, "split", "test", "") or "")
        if not train_topics or not test_topics:
            raise ConfigError("[split] needs train and test topics (or preset = ecbplus)")

    variant = normalize_variant(_get(cfg, "model", "variant", "CORE+CCE"))
    values = {section: {} for section, *_ in KEYS}  # an absent or empty key keeps its field default
    for section, key, kind, accepts, requirement in KEYS:
        raw = _get(cfg, section, key)
        if raw is None:
            continue
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be {_TYPE_NAMES[kind]}, got {raw!r}") from None
        if not accepts(value):
            raise ConfigError(f"[{section}] {key} must be {requirement}, got {value!r}")
        values[section][key] = value
    if variant == "CORE" and "lr" not in values["model"]:
        values["model"]["lr"] = TrainConfig.lr * 0.1  # CORE-only default runs ten times slower
    run = RunConfig(
        corpus=Path(corpus),
        output=Path(output),
        word_vectors=Path(word_vectors) if word_vectors else None,
        train_topics=train_topics,
        val_topics=val_topics,
        test_topics=test_topics,
        variant=variant,
        training=TrainConfig(**values["model"], use_cce=variant not in ("CORE",)),
        **values["cluster"],
        **values["score"],
        config_hash=config_text_hash(text),
    )
    _validate_lambdas(run)
    return run


def _validate_lambdas(run: RunConfig) -> None:
    if run.variant == "CORE" and run.training.lambda1 == 0.0 and run.training.lambda2 == 0.0:
        raise ConfigError("CORE variant needs a nonzero lambda1 or lambda2")
    if run.variant == "CCE" and (run.training.lambda1 or run.training.lambda2):
        raise ConfigError("CCE variant must not set lambda1/lambda2")
