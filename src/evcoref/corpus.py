"""Mention-annotated corpus: documents, gold chains, topic splits, training labels.

The on-disk format is line-delimited UTF-8 with tab-separated fields:

    DOC <doc_id> <topic_id>
    TOK <index> <sentence_id> <word> <lemma>
    MEN <mention_id> <chain_id> <idx1[,idx2,...]>

Tokens and mentions attach to the most recent DOC line; lines starting
with ``#`` are comments. A mention id may not be blank or start with
``#``, which chain files and mention lists would read as a blank or comment
line. Chain ids are opaque strings, and a chain id shared across documents
denotes cross-document identity.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, IntegrityError, ParseError
from .kernels import components
from .matio import read_matrix


@dataclass(frozen=True)
class Token:
    index: int
    word: str
    lemma: str
    sentence_id: int


@dataclass(frozen=True)
class Mention:
    """An action span inside one document plus its gold chain id."""

    id: str
    doc_id: str
    token_indices: tuple[int, ...]
    gold_chain: str

    @property
    def first_index(self) -> int:
        return self.token_indices[0]

    @property
    def last_index(self) -> int:
        return self.token_indices[-1]


@dataclass(frozen=True)
class Document:
    doc_id: str
    topic_id: str
    tokens: tuple[Token, ...]
    mentions: tuple[Mention, ...]

    def sentence_token_indices(self, sentence_id: int) -> list[int]:
        return [t.index for t in self.tokens if t.sentence_id == sentence_id]


@dataclass(frozen=True)
class Corpus:
    """Immutable document collection; safe to share across threads."""

    documents: tuple[Document, ...]

    def __post_init__(self):
        seen = set()
        for doc in self.documents:
            if doc.doc_id in seen:
                raise IntegrityError(f"duplicate document id {doc.doc_id!r}")
            seen.add(doc.doc_id)

    def mentions(self) -> Iterator[Mention]:
        for doc in self.documents:
            yield from doc.mentions

    def mention_doc_map(self) -> dict[str, str]:
        return {m.id: m.doc_id for m in self.mentions()}

    def topic_ids(self) -> set[str]:
        return {d.topic_id for d in self.documents}

    def summary(self) -> dict:
        mentions = list(self.mentions())
        return {
            "documents": len(self.documents),
            "topics": len(self.topic_ids()),
            "tokens": sum(len(d.tokens) for d in self.documents),
            "mentions": len(mentions),
            "chains": len({m.gold_chain for m in mentions}),
        }


def dense_labels(keys: Iterable[Hashable]) -> np.ndarray:
    """The one label form of a partition: equal keys get one label, and the
    labels are 0.. numbered in order of each key's first appearance."""
    seen: dict[Hashable, int] = {}
    return np.array([seen.setdefault(k, len(seen)) for k in keys], dtype=np.int64)


@dataclass(frozen=True)
class Clustering:
    """A partition of a mention set into chains (mention-id sets)."""

    chains: tuple[frozenset[str], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for chain in self.chains:
            if not chain:
                raise IntegrityError("empty chain in clustering")
            if seen & chain:
                raise IntegrityError(
                    f"chains overlap on {sorted(seen & chain)[:3]}"
                )
            seen |= chain

    @classmethod
    def from_sets(cls, chains: Iterable[Iterable[str]]) -> "Clustering":
        return cls(tuple(frozenset(c) for c in chains))

    def mention_ids(self) -> frozenset[str]:
        out: set[str] = set()
        for chain in self.chains:
            out |= chain
        return frozenset(out)

    def labels(self, mention_ids: Sequence[str]) -> np.ndarray:
        """Chain label of each mention in `mention_ids` order, which must list
        exactly this clustering's mentions. Chains are numbered by their first
        mention in that order, so the labels do not depend on the order of
        `chains` or of their members."""
        chain_of = {m: c for c, chain in enumerate(self.chains) for m in chain}
        missing = [m for m in mention_ids if m not in chain_of]
        not_given = sorted(chain_of.keys() - set(mention_ids))
        if missing or not_given or len(chain_of) != len(mention_ids):
            raise IntegrityError(
                f"clustering does not partition the given mentions: missing {missing[:3]}, not "
                f"given {not_given[:3]} ({len(mention_ids)} ids given, {len(chain_of)} clustered)"
            )
        return dense_labels(chain_of[m] for m in mention_ids)

    @classmethod
    def from_labels(cls, mention_ids: Sequence[str], labels: Iterable[Hashable]) -> "Clustering":
        """One chain per distinct label (a chain id, a head lemma, a (chain,
        document) pair, an integer), in order of first appearance. Labels are
        compared as given, so strings that differ only in trailing NULs stay
        apart."""
        chains: dict[Hashable, set[str]] = {}
        for m, label in zip(mention_ids, labels):
            chains.setdefault(label, set()).add(m)
        return cls.from_sets(chains.values())

    def sorted_chains(self) -> list[list[str]]:
        """Chains ordered by smallest member id, members sorted."""
        return sorted((sorted(c) for c in self.chains), key=lambda c: c[0])


def _text_lines(path) -> Iterator[tuple[int, str]]:
    """(line number from 1, line) of a UTF-8 text file. Bytes that are not
    UTF-8 are a ParseError naming their line, found by a second read."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield from enumerate(handle, 1)
    except UnicodeDecodeError:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for line_no, line in enumerate(handle, 1):
                if any("\udc80" <= ch <= "\udcff" for ch in line):
                    raise ParseError(path, line_no, "not UTF-8 text") from None


# ---------------------------------------------------------------------------
# Chain file IO: one line per chain, tab-separated mention ids
# ---------------------------------------------------------------------------


def write_chains(clustering: Clustering, path, meta: dict | None = None) -> None:
    """Chains ordered by smallest member id, members sorted; `meta` entries
    are embedded as leading `# key=value` comment lines."""
    with open(path, "w", encoding="utf-8") as out:
        for key, value in (meta or {}).items():
            out.write(f"# {key}={value}\n")
        for chain in clustering.sorted_chains():
            out.write("\t".join(chain) + "\n")


def read_chains(path) -> Clustering:
    chains = []
    for line_no, line in _text_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        members = line.split("\t")
        chain = set(members)
        if len(chain) != len(members):
            repeated = sorted(m for m in chain if members.count(m) > 1)
            raise ParseError(path, line_no, f"chain repeats mention(s) {repeated[:3]}")
        chains.append(chain)
    return Clustering.from_sets(chains)


class _DocBuilder:
    def __init__(self, doc_id: str, topic_id: str):
        self.doc_id = doc_id
        self.topic_id = topic_id
        self.tokens: list[Token] = []
        self.mentions: list[Mention] = []

    def finish(self) -> Document:
        tokens = sorted(self.tokens, key=lambda t: t.index)
        indices = [t.index for t in tokens]
        if indices != list(range(len(tokens))):
            raise IntegrityError(
                f"document {self.doc_id!r}: token indices not contiguous from 0"
            )
        for m in self.mentions:
            bad = [i for i in m.token_indices if i < 0 or i >= len(tokens)]
            if bad:
                raise IntegrityError(
                    f"mention {m.id!r} references missing token index {bad[0]} "
                    f"in document {self.doc_id!r} ({len(tokens)} tokens)"
                )
        mentions = sorted(self.mentions, key=lambda m: m.first_index)
        return Document(self.doc_id, self.topic_id, tuple(tokens), tuple(mentions))


def load_corpus(path) -> Corpus:
    """Parse a corpus file. Deterministic; raises ParseError with the line
    number for malformed records and IntegrityError for invariant breaks."""
    return _parse(_text_lines(path), path)


def loads_corpus(text: str, name: str = "<string>") -> Corpus:
    return _parse(enumerate(io.StringIO(text), 1), name)


def _parse(lines: Iterable[tuple[int, str]], path) -> Corpus:
    docs: list[Document] = []
    builder: _DocBuilder | None = None
    mention_ids: set[str] = set()

    for line_no, raw in lines:
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        kind = fields[0]

        if kind == "DOC":
            if len(fields) != 3:
                raise ParseError(path, line_no, "DOC record needs doc_id and topic_id")
            if builder is not None:
                docs.append(builder.finish())
            doc_id, topic_id = fields[1], fields[2]
            if not doc_id or not topic_id:
                raise ParseError(path, line_no, "empty doc_id or topic_id")
            builder = _DocBuilder(doc_id, topic_id)

        elif kind == "TOK":
            if builder is None:
                raise ParseError(path, line_no, "TOK record before any DOC")
            if len(fields) != 5:
                raise ParseError(path, line_no, "TOK record needs index, sentence_id, word, lemma")
            try:
                index = int(fields[1])
                sentence_id = int(fields[2])
            except ValueError:
                raise ParseError(path, line_no, "non-integer token index or sentence id")
            word, lemma = fields[3], fields[4]
            if not lemma:
                raise ParseError(path, line_no, "empty lemma")
            builder.tokens.append(Token(index, word, lemma, sentence_id))

        elif kind == "MEN":
            if builder is None:
                raise ParseError(path, line_no, "MEN record before any DOC")
            if len(fields) != 4:
                raise ParseError(path, line_no, "MEN record needs mention_id, chain_id, indices")
            mention_id, chain_id, idx_field = fields[1], fields[2], fields[3]
            if not mention_id or not chain_id:
                raise ParseError(path, line_no, "empty mention_id or chain_id")
            if not mention_id.strip() or mention_id.startswith("#"):
                raise ParseError(path, line_no, f"mention id {mention_id!r} is blank or starts with '#'")
            try:
                indices = tuple(int(p) for p in idx_field.split(","))
            except ValueError:
                raise ParseError(path, line_no, f"bad token index list {idx_field!r}")
            if not indices or any(b <= a for a, b in zip(indices, indices[1:])):
                raise ParseError(path, line_no, "token indices must be nonempty and ascending")
            if mention_id in mention_ids:
                raise IntegrityError(f"duplicate mention id {mention_id!r}")
            mention_ids.add(mention_id)
            builder.mentions.append(
                Mention(mention_id, builder.doc_id, indices, chain_id)
            )

        else:
            raise ParseError(path, line_no, f"unknown record kind {kind!r}")

    if builder is not None:
        docs.append(builder.finish())
    return Corpus(tuple(docs))


def split_by_topics(
    corpus: Corpus,
    train: Iterable[str],
    validation: Iterable[str],
    test: Iterable[str],
) -> tuple[Corpus, Corpus, Corpus]:
    """Partition documents by topic id. Documents in none of the sets are
    dropped; overlapping sets are a configuration error."""
    train, validation, test = set(train), set(validation), set(test)
    overlap = (train & validation) | (train & test) | (validation & test)
    if overlap:
        raise ConfigError(f"topic sets overlap on {sorted(overlap)}")

    def pick(topics: set[str]) -> Corpus:
        return Corpus(tuple(d for d in corpus.documents if d.topic_id in topics))

    return pick(train), pick(validation), pick(test)


def ecbplus_default_split() -> tuple[set[str], set[str], set[str]]:
    """Standard ECB+ configuration: topics 1-35 train (minus the 8
    validation topics), 36-45 test."""
    validation = {"2", "5", "12", "18", "21", "23", "34", "35"}
    train = {str(t) for t in range(1, 36)} - validation
    test = {str(t) for t in range(36, 46)}
    return train, validation, test


def gold_clustering(corpus: Corpus) -> Clustering:
    """One chain per distinct gold chain id; singletons stay singleton."""
    mentions = list(corpus.mentions())
    return Clustering.from_labels([m.id for m in mentions], [m.gold_chain for m in mentions])


def head_lemma(mention: Mention, doc: Document) -> str:
    """Lemma of the span's final token, the approximate syntactic head."""
    return doc.tokens[mention.last_index].lemma


@dataclass(frozen=True)
class LemmaPairs:
    """The mention pairs of one split that share a head lemma, one float64
    row each (left row, right row, same document, cosine), as in the file
    `<split>.lemma_pairs.mat`: rows number the mentions in corpus order, left
    < right, and the cosine is that of the two documents' unit
    `tfidf.doc_vector`s, 0 for same-document pairs, which always merge."""

    mention_ids: list[str]
    pairs: np.ndarray

    @classmethod
    def of(cls, corpus: Corpus, tfidf) -> "LemmaPairs":
        doc_vecs = {}
        for doc in corpus.documents:
            vec = tfidf.doc_vector(doc)
            norm = np.linalg.norm(vec)
            doc_vecs[doc.doc_id] = vec / norm if norm > 0 else vec
        by_lemma: dict[str, list[tuple[int, str]]] = {}
        for row, (m, doc) in enumerate((m, doc) for doc in corpus.documents for m in doc.mentions):
            by_lemma.setdefault(head_lemma(m, doc), []).append((row, m.doc_id))
        pairs = [
            (i, j, di == dj, 0.0 if di == dj else float(doc_vecs[di] @ doc_vecs[dj]))
            for group in by_lemma.values()
            for a, (i, di) in enumerate(group)
            for j, dj in group[a + 1 :]
        ]
        return cls([m.id for m in corpus.mentions()], np.array(pairs, dtype=np.float64).reshape(-1, 4))

    @classmethod
    def read(cls, path, mention_ids: list[str]) -> "LemmaPairs":
        """The pair file at `path` over these mentions, refused unless each
        row is finite and names two of their n rows, 0 <= left < right < n."""
        pairs, n = read_matrix(path), len(mention_ids)
        if pairs.shape[1] != 4:
            raise ParseError(path, 1, f"{pairs.shape[1]} columns, not 4 (left, right, same doc, cosine)")
        rows = pairs[:, :2]
        bad = ~np.isfinite(pairs).all(axis=1) | (rows != np.floor(rows)).any(axis=1)
        bad = np.flatnonzero(bad | ~((0 <= rows[:, 0]) & (rows[:, 0] < rows[:, 1]) & (rows[:, 1] < n)))
        if len(bad):
            raise ParseError(path, 1, f"pair {bad[0]} is not finite with rows 0 <= left < right < {n}")
        return cls(mention_ids, pairs)

    def labels_at(self, delta: float) -> np.ndarray:
        """The partition at this delta (-inf keeps every pair: the lemma
        partition) as labels 0.. numbered by each cluster's first mention,
        so equal partitions give equal label vectors."""
        _, _, same_doc, cosines = self.pairs.T
        keep = (same_doc != 0.0) | (cosines > delta)
        rows = self.pairs[keep, :2].astype(np.int64)
        return components(len(self.mention_ids), rows[:, 0], rows[:, 1])

    def clustering_at(self, delta: float) -> Clustering:
        """The lemma-delta seed partition at this delta, as a Clustering."""
        return Clustering.from_labels(self.mention_ids, self.labels_at(delta))
