"""Vocabulary with reserved special tokens and growable special-token tail."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from repro.ioutil import atomic_write_text

PAD = "[PAD]"
UNK = "[UNK]"
CLS = "[CLS]"
SEP = "[SEP]"
MASK = "[MASK]"

CORE_SPECIALS = (PAD, UNK, CLS, SEP, MASK)


class Vocab:
    """Bidirectional token/id mapping.

    The five BERT control tokens always occupy ids 0–4.  Additional special
    tokens (prompt tokens, mined tele tokens) can be appended at any time via
    :meth:`add_special_tokens`; callers that hold embedding tables react by
    growing them (see :meth:`repro.nn.Embedding.grow`).
    """

    def __init__(self, tokens: Iterable[str] = ()):
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        self._special: set[str] = set()
        for token in CORE_SPECIALS:
            self._add(token, special=True)
        for token in tokens:
            self._add(token)

    # ------------------------------------------------------------------
    def _add(self, token: str, special: bool = False) -> int:
        if token in self._token_to_id:
            if special:
                # Promote an existing plain token (e.g. a "[KPI]" literal seen
                # in raw corpus text) to special status.
                self._special.add(token)
            return self._token_to_id[token]
        index = len(self._id_to_token)
        self._token_to_id[token] = index
        self._id_to_token.append(token)
        if special:
            self._special.add(token)
        return index

    def add_tokens(self, tokens: Iterable[str]) -> int:
        """Add plain tokens; returns how many were new."""
        before = len(self)
        for token in tokens:
            self._add(token)
        return len(self) - before

    def add_special_tokens(self, tokens: Iterable[str]) -> int:
        """Add special tokens (never masked, never split); returns new count."""
        before = len(self)
        for token in tokens:
            self._add(token, special=True)
        return len(self) - before

    @classmethod
    def build(cls, sentences: Iterable[Sequence[str]], min_freq: int = 1,
              max_size: int | None = None) -> "Vocab":
        """Build from tokenised sentences keeping tokens with ``freq >= min_freq``."""
        counts = Counter()
        for sentence in sentences:
            counts.update(sentence)
        ranked = [t for t, c in counts.most_common() if c >= min_freq]
        if max_size is not None:
            ranked = ranked[: max(max_size - len(CORE_SPECIALS), 0)]
        return cls(ranked)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token_to_id(self, token: str) -> int:
        return self._token_to_id.get(token, self._token_to_id[UNK])

    def id_to_token(self, index: int) -> str:
        return self._id_to_token[index]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """Ids of ``tokens``, with ``[UNK]`` for unknown ones."""
        lookup, unk = self._token_to_id.get, self.unk_id
        return [lookup(t, unk) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token(i) for i in ids]

    def is_special(self, token: str) -> bool:
        return token in self._special

    @property
    def special_tokens(self) -> frozenset[str]:
        return frozenset(self._special)

    @property
    def num_special(self) -> int:
        """Number of special tokens; O(1) cache key for special-id caches."""
        return len(self._special)

    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[CLS]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[SEP]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[MASK]

    def special_ids(self) -> set[int]:
        """Ids of all special tokens (excluded from MLM target sampling)."""
        return {self._token_to_id[t] for t in self._special}

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        payload = {"tokens": self._id_to_token,
                   "special": sorted(self._special)}
        atomic_write_text(path, json.dumps(payload, ensure_ascii=False))

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        payload = json.loads(Path(path).read_text())
        vocab = cls.__new__(cls)
        vocab._token_to_id = {t: i for i, t in enumerate(payload["tokens"])}
        vocab._id_to_token = list(payload["tokens"])
        vocab._special = set(payload["special"])
        return vocab
