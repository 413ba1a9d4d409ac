"""Tokenizers for the synthetic corpora.

Two tokenizers are provided: a byte-level tokenizer (robust, vocabulary 256 +
specials) and a word-level tokenizer built from a corpus (small vocabulary,
which is what the tiny trainable models use so that their embedding tables
stay small).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence


class ByteTokenizer:
    """UTF-8 byte tokenizer with BOS/EOS specials."""

    def __init__(self) -> None:
        self.bos_id = 256
        self.eos_id = 257
        self.vocab_size = 258

    def encode(self, text: str, add_bos: bool = True, add_eos: bool = False) -> list[int]:
        """Encode text to token ids."""
        tokens = list(text.encode("utf-8"))
        if add_bos:
            tokens = [self.bos_id] + tokens
        if add_eos:
            tokens = tokens + [self.eos_id]
        return tokens

    def decode(self, tokens: Sequence[int]) -> str:
        """Decode token ids back to text, dropping specials."""
        payload = bytes(t for t in tokens if t < 256)
        return payload.decode("utf-8", errors="replace")


class WordTokenizer:
    """Whitespace word tokenizer with a fixed vocabulary and an UNK token."""

    PAD = "<pad>"
    BOS = "<bos>"
    EOS = "<eos>"
    UNK = "<unk>"

    def __init__(self, vocab: Sequence[str]) -> None:
        specials = [self.PAD, self.BOS, self.EOS, self.UNK]
        duplicates = set(specials) & set(vocab)
        if duplicates:
            raise ValueError(f"vocabulary must not contain special tokens: {sorted(duplicates)}")
        self._id_to_word = specials + list(vocab)
        self._word_to_id = {word: idx for idx, word in enumerate(self._id_to_word)}

    @classmethod
    def from_corpus(cls, texts: Iterable[str], max_vocab: int = 1024) -> "WordTokenizer":
        """Build a vocabulary from the most frequent words of a corpus."""
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(text.split())
        vocab = [word for word, _ in counts.most_common(max_vocab)]
        return cls(vocab)

    @property
    def vocab_size(self) -> int:
        return len(self._id_to_word)

    @property
    def bos_id(self) -> int:
        return self._word_to_id[self.BOS]

    @property
    def eos_id(self) -> int:
        return self._word_to_id[self.EOS]

    @property
    def unk_id(self) -> int:
        return self._word_to_id[self.UNK]

    def encode(self, text: str, add_bos: bool = True, add_eos: bool = False) -> list[int]:
        """Encode whitespace-separated words to token ids."""
        ids = [self._word_to_id.get(word, self.unk_id) for word in text.split()]
        if add_bos:
            ids = [self.bos_id] + ids
        if add_eos:
            ids = ids + [self.eos_id]
        return ids

    def decode(self, tokens: Sequence[int]) -> str:
        """Decode ids back to a whitespace-joined string, dropping specials."""
        words = [
            self._id_to_word[t]
            for t in tokens
            if 0 <= t < len(self._id_to_word) and self._id_to_word[t] not in (self.PAD, self.BOS, self.EOS)
        ]
        return " ".join(words)
