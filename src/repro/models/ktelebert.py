"""KTeleBERT: the stage-2 knowledge-enhanced model (Sec. IV).

Bundles the TeleBERT encoder with

* prompt + mined tele special tokens added to the vocabulary (Sec. IV-A),
* the adaptive numeric encoder injected at ``[NUM]`` positions (Sec. IV-B)
  together with NDec / TGC / `L_num`,
* 40% dynamic whole-word masking over prompt-wrapped corpora (Sec. IV-C),
* the text-enhanced KE objective on serialized triples (Sec. IV-D).

Inputs are *rows*: :class:`TextRow` for plain (causal/alarm) sentences,
:class:`NumericRow` for a sentence carrying one numeric value under a tag
name, and :class:`TripleRow` for a KG fact with its sampled corruptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.bert import BertConfig, BertForMaskedLM
from repro.models.inference import cls_forward
from repro.models.ke import KnowledgeEmbeddingObjective
from repro.models.telebert import TeleBertTrainer
from repro.numeric.anenc import AdaptiveNumericEncoder
from repro.numeric.heads import NumericDecoder, TagClassifier
from repro.numeric.losses import NumericLossComputer, NumericLossOutput
from repro.numeric.normalization import TagNormalizer
from repro.prompts.templates import (
    ALL_PROMPT_TOKENS,
    ENT,
    EXTENSION_PROMPT_TOKENS,
    NUM,
    REL,
)
from repro.tensor import functional as F
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor
from repro.tokenization.tokenizer import WordTokenizer
from repro.training.masking import DynamicMasker


@dataclass(frozen=True)
class TextRow:
    """A plain prompt-wrapped sentence (causal sentence, alarm log, triple)."""

    text: str


@dataclass(frozen=True)
class NumericRow:
    """A sentence carrying one numeric value under ``tag`` (KPI / attribute)."""

    text: str
    tag: str
    value: float


@dataclass(frozen=True)
class TripleRow:
    """A KG fact by surfaces, with corrupted (head, tail) surface pairs."""

    head: str
    relation: str
    tail: str
    negatives: tuple[tuple[str, str], ...]


@dataclass
class KTeleBertConfig:
    """Stage-2 hyper-parameters (paper values in comments)."""

    use_anenc: bool = True            # ablation switch ("w/o ANEnc" rows)
    use_tag_classifier: bool = True   # L_cls is optional (Sec. IV-B2)
    use_contrastive: bool = True      # L_nc ablation (Fig. 10)
    anenc_layers: int = 2             # L
    anenc_meta: int = 4               # N
    lora_rank: int = 4                # r
    lora_alpha: float = 1.0           # α
    masking_rate: float = 0.4         # 40% (Sec. IV-C1)
    ke_gamma: float = 1.0             # γ = 1.0
    ke_negatives: int = 10            # 10 negatives per entity
    contrastive_temperature: float = 0.05   # τ = 0.05
    orthogonal_weight: float = 1e-4         # λ = 1e-4
    numeric_weight: float = 1.0       # weight of L_num inside the step loss


class KTeleBert:
    """The knowledge-enhanced tele PLM with its numeric and KE machinery."""

    def __init__(self, tokenizer: WordTokenizer, bert_config: BertConfig,
                 config: KTeleBertConfig, tag_names: list[str],
                 normalizer: TagNormalizer, rng: np.random.Generator,
                 mlm_model: BertForMaskedLM | None = None):
        self.tokenizer = tokenizer
        self.config = config
        self.rng = rng
        self.mlm_model = mlm_model or BertForMaskedLM(bert_config, rng)
        self.bert_config = self.mlm_model.config
        self.normalizer = normalizer
        self.tag_names = list(tag_names)
        self.tag_index = {t: i for i, t in enumerate(self.tag_names)}

        d = self.bert_config.d_model
        self.anenc = AdaptiveNumericEncoder(
            d, num_layers=config.anenc_layers, num_meta=config.anenc_meta,
            lora_rank=config.lora_rank, lora_alpha=config.lora_alpha, rng=rng)
        self.ndec = NumericDecoder(d, rng)
        self.tgc = (TagClassifier(d, max(len(self.tag_names), 2), rng)
                    if config.use_tag_classifier else None)
        self.numeric_loss = NumericLossComputer(
            use_tag_classifier=config.use_tag_classifier,
            contrastive_temperature=config.contrastive_temperature,
            orthogonal_weight=config.orthogonal_weight,
            use_contrastive=config.use_contrastive)
        self.ke_objective = KnowledgeEmbeddingObjective(gamma=config.ke_gamma)
        self._num_token_id = tokenizer.vocab.token_to_id(NUM)
        self.last_batch_tokens = 0  # set by masked_lm_loss; journal throughput

    # ------------------------------------------------------------------
    # Construction from stage 1
    # ------------------------------------------------------------------
    @classmethod
    def from_telebert(cls, trainer: TeleBertTrainer, config: KTeleBertConfig,
                      tag_names: list[str], normalizer: TagNormalizer,
                      tele_special_tokens: list[str] | None = None,
                      extra_vocabulary: list[str] | None = None,
                      seed: int = 0) -> "KTeleBert":
        """Initialise stage 2 from a stage-1 TeleBERT.

        Adds the prompt tokens and mined tele tokens as vocabulary specials
        with fresh embeddings (Sec. IV-A3), copying all pre-trained weights.
        ``extra_vocabulary`` registers ordinary stage-2 corpus words unseen in
        stage 1 (our tokenizer is word-level, not wordpiece, so coverage must
        be grown explicitly).
        """
        from dataclasses import replace as dc_replace

        rng = np.random.default_rng(seed + 31)
        tokenizer = trainer.tokenizer
        new_tokens = (list(ALL_PROMPT_TOKENS) + list(EXTENSION_PROMPT_TOKENS)
                      + list(tele_special_tokens or []))
        tokenizer.vocab.add_special_tokens(new_tokens)
        tokenizer.vocab.add_tokens(extra_vocabulary or [])

        # Fresh config copy sized to the *stage-1* vocabulary, so repeated
        # calls (one per strategy variant) neither share nor corrupt state.
        stage1_config = dc_replace(
            trainer.config,
            vocab_size=trainer.encoder.token_embedding.num_embeddings)
        mlm_model = BertForMaskedLM(stage1_config, rng)
        # Discriminator weights -> the encoder of the stage-2 model.
        mlm_model.bert.load_state_dict(trainer.encoder.state_dict())
        mlm_model.grow_vocab(
            len(tokenizer.vocab) - stage1_config.vocab_size, rng)
        return cls(tokenizer=tokenizer, bert_config=mlm_model.config,
                   config=config, tag_names=tag_names, normalizer=normalizer,
                   rng=rng, mlm_model=mlm_model)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def parameters(self):
        params = self.mlm_model.parameters() + self.anenc.parameters() + \
            self.ndec.parameters() + self.numeric_loss.parameters()
        if self.tgc is not None:
            params += self.tgc.parameters()
        return params

    def train(self):
        self.mlm_model.train()
        self.anenc.train()
        self.ndec.train()
        if self.tgc is not None:
            self.tgc.train()

    def eval(self):
        self.mlm_model.eval()
        self.anenc.eval()
        self.ndec.eval()
        if self.tgc is not None:
            self.tgc.eval()

    # ------------------------------------------------------------------
    # Batch preparation
    # ------------------------------------------------------------------
    def _tag_embeddings(self, tags: list[str]) -> Tensor:
        """Mean-pooled token embeddings of tag names (Sec. IV-B: ``t``)."""
        ids, mask = self.tokenizer.encode_batch(tags)
        embedded = self.mlm_model.bert.token_embedding(ids)
        return F.masked_mean(embedded, mask, axis=1)

    def _prepare(self, rows: list) -> dict:
        """Tokenize rows; locate ``[NUM]`` slots for numeric rows."""
        texts = [r.text for r in rows]
        ids, mask, tokens = self.tokenizer.encode_batch_with_tokens(texts)
        numeric_rows: list[int] = []
        numeric_positions: list[tuple[int, int]] = []
        values: list[float] = []
        tags: list[str] = []
        excluded: list[set[int]] = [set() for _ in rows]
        for i, row in enumerate(rows):
            if not isinstance(row, NumericRow):
                continue
            row_tokens = tokens[i]
            if NUM not in row_tokens:
                continue  # [NUM] truncated away: treat as plain text
            position = row_tokens.index(NUM)
            numeric_rows.append(i)
            numeric_positions.append((i, position))
            values.append(self.normalizer.transform_one(row.tag, row.value))
            tags.append(row.tag)
            excluded[i].add(position)
            if position + 1 < len(row_tokens):
                excluded[i].add(position + 1)  # the literal value token
        return {
            "ids": ids, "mask": mask, "tokens": tokens,
            "numeric_rows": numeric_rows,
            "numeric_positions": np.array(numeric_positions, dtype=np.int64)
            if numeric_positions else np.zeros((0, 2), dtype=np.int64),
            "values": np.array(values), "tags": tags, "excluded": excluded,
        }

    def _numeric_overrides(self, prep: dict):
        """ANEnc embeddings for the batch's ``[NUM]`` slots (or None)."""
        if not self.config.use_anenc or not len(prep["numeric_positions"]):
            return None, None
        tag_emb = self._tag_embeddings(prep["tags"])
        h = self.anenc(prep["values"], tag_emb)
        return (prep["numeric_positions"], h), h

    # ------------------------------------------------------------------
    # Objectives
    # ------------------------------------------------------------------
    def masked_lm_loss(self, rows: list, masker: DynamicMasker
                       ) -> tuple[Tensor, NumericLossOutput | None]:
        """`L_mask` (+ `L_num` when numeric rows are present and ANEnc is on)."""
        prep = self._prepare(rows)
        # Cheap throughput accounting for the training runtime's journal;
        # counting here avoids a second tokenization pass per step.
        self.last_batch_tokens = int(prep["mask"].sum())
        masked = masker.mask_batch(prep["ids"], prep["mask"],
                                   tokens=prep["tokens"],
                                   excluded_positions=prep["excluded"])
        overrides, h = self._numeric_overrides(prep)
        hidden = self.mlm_model.bert(masked.ids, attention_mask=prep["mask"],
                                     embedding_overrides=overrides)
        logits = self.mlm_model.mlm_head(hidden)
        loss = F.cross_entropy(logits, masked.labels,
                               ignore_index=self.mlm_model.IGNORE_INDEX)

        numeric_output: NumericLossOutput | None = None
        if h is not None:
            positions = prep["numeric_positions"]
            final_at_num = hidden[positions[:, 0], positions[:, 1]]
            decoded = self.ndec(final_at_num)
            tag_ids = np.array([self.tag_index.get(t, 0) for t in prep["tags"]])
            numeric_output = self.numeric_loss(
                self.anenc, h, decoded, prep["values"],
                tag_classifier=self.tgc,
                tag_ids=tag_ids if self.tgc is not None else None)
            loss = loss + numeric_output.total * self.config.numeric_weight
        return loss, numeric_output

    def _cls(self, texts: list[str], overrides=None) -> Tensor:
        ids, mask = self.tokenizer.encode_batch(texts)
        return self.mlm_model.bert.cls_embeddings(
            ids, mask, embedding_overrides=overrides)

    def ke_loss(self, rows: list[TripleRow]) -> Tensor:
        """`L_ke` (Eq. 10) over a batch of triples with their corruptions."""
        if not rows:
            raise ValueError("empty triple batch")
        n = len(rows[0].negatives)
        if any(len(r.negatives) != n for r in rows) or n == 0:
            raise ValueError("every triple needs the same, nonzero negative count")
        head = self._cls([f"{ENT} {r.head}" for r in rows])
        tail = self._cls([f"{ENT} {r.tail}" for r in rows])
        relation = self._cls([f"{REL} {r.relation}" for r in rows])
        d = head.shape[-1]
        neg_heads = self._cls([f"{ENT} {h}" for r in rows
                               for h, _ in r.negatives]).reshape(len(rows), n, d)
        neg_tails = self._cls([f"{ENT} {t}" for r in rows
                               for _, t in r.negatives]).reshape(len(rows), n, d)
        neg_rel = relation.expand_dims(1)  # broadcast over corruptions
        return self.ke_objective.loss(head, relation, tail,
                                      neg_heads, neg_rel, neg_tails)

    # ------------------------------------------------------------------
    # Service delivery (Sec. V-A3)
    # ------------------------------------------------------------------
    def encode(self, rows: list) -> np.ndarray:
        """Deterministic service embeddings ([CLS] outputs) for mixed rows.

        Runs the tape-free :func:`~repro.models.inference.cls_forward`,
        which has no dropout and no mode state, so concurrent encodes (and
        a concurrent training step) never see each other, and the model's
        train/eval mode is left as it was.
        """
        prep = self._prepare(rows)
        with no_grad():  # ANEnc has no dropout, so its mode does not matter
            overrides, h = self._numeric_overrides(prep)
        if overrides is not None:
            overrides = (overrides[0], h.data)
        return cls_forward(self.mlm_model.bert, prep["ids"], prep["mask"],
                           overrides=overrides)

    def encode_texts(self, texts: list[str]) -> np.ndarray:
        """Service embeddings for plain strings."""
        return self.encode([TextRow(t) for t in texts])
