"""Token-level text encoders.

A text becomes a matrix with one unit-norm row per token. The reference
encoder is deterministic and training-free: a token's vector is the
L2-normalized sum of pseudo-random Gaussian basis vectors, one per
character trigram of the padded token. Identical tokens always collide
exactly (dot product 1.0), tokens sharing trigrams land near each other,
and unrelated tokens are near-orthogonal in expectation. Basis vectors
are seeded by a keyed 64-bit hash, so encodings are bit-identical across
processes and machines regardless of PYTHONHASHSEED.

A passage's rows are those of `passage_tokens`, its capped token list, so
an index can count every passage's rows before it encodes one.

`query_weights` scale query rows per token (unnamed tokens keep 1.0);
passage rows stay unit-norm, so one index serves every weighting.
`reweighted(weights)` returns an encoder with the weights multiplied in
token by token, sharing this encoder's token caches.

`fingerprint()` is what an index records of the encoder that built it, so
that an encoder that would encode its passages otherwise (another seed,
dim or passage cap) is refused instead of scoring garbage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import MultiHopQuery, Passage
from .util import hash64, tokenize

# The text whose rows `LexicalEncoder.fingerprint` digests: trigrams enough
# that every seed gives other bits.
FINGERPRINT_PROBE = "hoplite encoder fingerprint probe 0123456789"


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 128
    seed: int = 0
    max_passage_tokens: int = 256
    max_query_tokens: int = 64
    max_overall_tokens: int = 512

    def __post_init__(self) -> None:
        if self.dim < 8:
            raise ValueError(f"dim must be >= 8, got {self.dim}")
        if self.max_passage_tokens < 1:
            raise ValueError("max_passage_tokens must be positive")
        if self.max_query_tokens < 1:
            raise ValueError("max_query_tokens must be positive")
        if self.max_overall_tokens < self.max_query_tokens:
            raise ValueError("max_overall_tokens must be >= max_query_tokens")


@dataclass(frozen=True)
class EncoderFingerprint:
    """What decides an encoder's passage rows: their dim, the passage token
    cap, and a blake2b digest (16 bytes) of its rows for FINGERPRINT_PROBE."""

    dim: int
    max_passage_tokens: int
    digest: bytes


@dataclass(frozen=True)
class EncodedQuery:
    """Query-part and fact-part row matrices, kept separate for scoring."""

    query_part: np.ndarray
    fact_part: np.ndarray

    @property
    def dim(self) -> int:
        return self.query_part.shape[1]


class LexicalEncoder:
    """Deterministic trigram-hash encoder; see module docstring."""

    def __init__(
        self, cfg: EncoderConfig | None = None, query_weights: Mapping[str, float] | None = None
    ):
        self.cfg = cfg or EncoderConfig()
        self.query_weights = dict(query_weights or {})
        self._trigram_cache: dict[str, np.ndarray] = {}
        self._token_cache: dict[str, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self.cfg.dim

    def _trigram_basis(self, trigram: str) -> np.ndarray:
        vec = self._trigram_cache.get(trigram)
        if vec is None:
            rng = np.random.default_rng(hash64(trigram, key=self.cfg.seed))
            vec = rng.standard_normal(self.cfg.dim)
            self._trigram_cache[trigram] = vec
        return vec

    def token_vector(self, token: str) -> np.ndarray:
        """Unit-norm float32 vector for one token."""
        vec = self._token_cache.get(token)
        if vec is None:
            padded = f"#{token}#"
            total = np.zeros(self.cfg.dim, dtype=np.float64)
            for i in range(len(padded) - 2):
                total += self._trigram_basis(padded[i : i + 3])
            norm = float(np.linalg.norm(total))
            if norm < 1e-12:
                # Degenerate cancellation; fall back to a whole-token basis.
                total = self._trigram_basis(padded)
                norm = float(np.linalg.norm(total))
            vec = (total / norm).astype(np.float32)
            self._token_cache[token] = vec
        return vec

    def token_rows(self, tokens: list[str]) -> np.ndarray:
        """Float32 (len(tokens), dim): each token's vector, in order."""
        if not tokens:
            return np.zeros((0, self.cfg.dim), dtype=np.float32)
        return np.stack([self.token_vector(t) for t in tokens])

    def passage_tokens(self, passage: Passage) -> list[str]:
        """Title tokens, then each sentence's tokens, capped at max_passage_tokens."""
        tokens = tokenize(passage.title)
        for sentence in passage.sentences:
            tokens.extend(tokenize(sentence))
        return tokens[: self.cfg.max_passage_tokens]

    def encode_passage(self, passage: Passage) -> np.ndarray:
        """The rows of `passage_tokens`: one per token, in order."""
        return self.token_rows(self.passage_tokens(passage))

    def fingerprint(self) -> EncoderFingerprint:
        """What an index built by this encoder records of it; query weights,
        which leave passage rows alone, do not enter."""
        rows = self.token_rows(tokenize(FINGERPRINT_PROBE))
        digest = hashlib.blake2b(rows.astype("<f4").tobytes(), digest_size=16).digest()
        return EncoderFingerprint(self.cfg.dim, self.cfg.max_passage_tokens, digest)

    def kept_tokens(self, query: MultiHopQuery) -> tuple[list[str], list[str]]:
        """The query tokens and fact tokens that fit the token caps, in row order."""
        q_tokens = tokenize(query.q0_text)[: self.cfg.max_query_tokens]
        budget = self.cfg.max_overall_tokens - len(q_tokens)
        fact_tokens: list[str] = []
        for fact in query.facts:
            if len(fact_tokens) >= budget:
                break
            fact_tokens.extend(tokenize(fact.text))
        # Overflow drops the newest facts' tokens; earliest hops survive.
        return q_tokens, fact_tokens[:budget]

    def _query_matrix(self, tokens: list[str]) -> np.ndarray:
        rows = self.token_rows(tokens)
        if not self.query_weights:
            return rows
        scales = np.array([self.query_weights.get(t, 1.0) for t in tokens], dtype=np.float32)
        return rows * scales[:, None]

    def encode_query(self, query: MultiHopQuery) -> EncodedQuery:
        q_tokens, fact_tokens = self.kept_tokens(query)
        return EncodedQuery(
            query_part=self._query_matrix(q_tokens), fact_part=self._query_matrix(fact_tokens)
        )

    def reweighted(self, weights: Mapping[str, float]) -> "LexicalEncoder":
        """Same encoder with query weights multiplied by `weights`, caches shared."""
        merged = dict(self.query_weights)
        for token, w in weights.items():
            merged[token] = merged.get(token, 1.0) * w
        other = LexicalEncoder(self.cfg, merged)
        other._trigram_cache = self._trigram_cache
        other._token_cache = self._token_cache
        return other
