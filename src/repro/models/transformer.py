"""Encoder–decoder Transformer for machine translation (Transformer-Base/Tiny).

The paper trains Transformer-Base (6 encoders + 6 decoders = 12 building
layer modules) on WMT16 EN-DE and a Transformer-Tiny (2 + 2) variant
(Table 1).  Egeria freezes the front *encoder* layers first; because the
Transformer has a balanced structure (unlike CNNs whose deep layers hold most
parameters), freezing front layers already yields a large speedup (§6.2).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import nn

__all__ = ["TransformerMT", "transformer_base_lite", "transformer_tiny"]


def causal_mask(size: int) -> np.ndarray:
    """Boolean lower-triangular mask for autoregressive decoding."""
    return np.tril(np.ones((size, size), dtype=bool))


class TransformerMT(nn.Module):
    """Sequence-to-sequence Transformer with tied source/target vocabulary."""

    def __init__(self, vocab_size: int = 128, d_model: int = 32, num_heads: int = 4, d_ff: int = 64,
                 num_encoder_layers: int = 6, num_decoder_layers: int = 6, max_len: int = 64,
                 dropout: float = 0.0, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.num_encoder_layers = num_encoder_layers
        self.num_decoder_layers = num_decoder_layers

        self.src_embed = nn.Embedding(vocab_size, d_model, rng=rng)
        self.tgt_embed = nn.Embedding(vocab_size, d_model, rng=rng)
        self.positional = nn.PositionalEncoding(d_model, max_len=max_len)
        self.encoder = nn.ModuleList(
            [nn.TransformerEncoderLayer(d_model, num_heads, d_ff, dropout=dropout, rng=rng)
             for _ in range(num_encoder_layers)]
        )
        self.decoder = nn.ModuleList(
            [nn.TransformerDecoderLayer(d_model, num_heads, d_ff, dropout=dropout, rng=rng)
             for _ in range(num_decoder_layers)]
        )
        self.encoder_norm = nn.LayerNorm(d_model)
        self.decoder_norm = nn.LayerNorm(d_model)
        self.generator = nn.Linear(d_model, vocab_size, rng=rng)

        self.module_sequence: List[str] = (
            ["src_embed"]
            + [f"encoder.{i}" for i in range(num_encoder_layers)]
            + [f"decoder.{i}" for i in range(num_decoder_layers)]
            + ["generator"]
        )
        #: Parameterised glue (see ``parse_layer_modules``): each final norm
        #: freezes with the last layer of its stack, and the target embedding
        #: with the first decoder layer, so no frozen prefix has a trainable
        #: tensor upstream of its tail.
        self.module_glue = {f"encoder.{num_encoder_layers - 1}": ["encoder_norm"], "decoder.0": ["tgt_embed"]}
        self.module_glue.setdefault(f"decoder.{num_decoder_layers - 1}", []).append("decoder_norm")

    def can_resume_from(self, path: str) -> bool:
        """Only encoder-side tails: a decoder layer's output alone lacks the encoder memory."""
        return path == "src_embed" or path.startswith("encoder.")

    def encode(self, src_tokens: np.ndarray, tail_path: Optional[str] = None,
               hidden: Optional[nn.Tensor] = None) -> nn.Tensor:
        """Run the encoder stack over integer source tokens ``(N, S)``.

        With ``tail_path`` the stack resumes just past that building block
        from its output ``hidden`` instead of embedding ``src_tokens``.
        """
        first_layer = 0
        if tail_path is None:
            hidden = self.src_embed(src_tokens)
        elif tail_path != "src_embed":
            first_layer = int(tail_path.rpartition(".")[2]) + 1
        x = self.positional(hidden) if first_layer == 0 else hidden
        for index in range(first_layer, self.num_encoder_layers):
            x = self.encoder[index](x)
        return self.encoder_norm(x)

    def decode(self, tgt_tokens: np.ndarray, memory: nn.Tensor) -> nn.Tensor:
        """Run the decoder stack over target tokens with a causal mask."""
        tgt_len = np.asarray(tgt_tokens).shape[1]
        mask = causal_mask(tgt_len)
        x = self.positional(self.tgt_embed(tgt_tokens))
        for layer in self.decoder:
            x = layer(x, memory, self_mask=mask)
        return self.decoder_norm(x)

    def forward(self, src_tokens: np.ndarray, tgt_tokens: Optional[np.ndarray] = None) -> nn.Tensor:
        """Return next-token logits ``(N, T, vocab)`` for teacher forcing.

        When ``tgt_tokens`` is omitted the source tokens double as the target
        prefix (useful for quick smoke tests).
        """
        return self.forward_from(None, None, src_tokens, tgt_tokens)

    def forward_from(self, tail_path: Optional[str], hidden: Optional[nn.Tensor], src_tokens: np.ndarray,
                     tgt_tokens: Optional[np.ndarray] = None) -> nn.Tensor:
        """The forward pass, resumed past encoder-side block ``tail_path`` when given."""
        if tgt_tokens is None:
            tgt_tokens = src_tokens
        memory = self.encode(src_tokens, tail_path, hidden)
        decoded = self.decode(tgt_tokens, memory)
        return self.generator(decoded)


def transformer_base_lite(vocab_size: int = 128, seed: int = 0) -> TransformerMT:
    """6+6-layer Transformer with scaled-down model dimension (paper: Transformer-Base)."""
    return TransformerMT(vocab_size=vocab_size, d_model=32, num_heads=4, d_ff=64,
                         num_encoder_layers=6, num_decoder_layers=6, seed=seed)


def transformer_tiny(vocab_size: int = 64, seed: int = 0) -> TransformerMT:
    """2+2-layer Transformer-Tiny (4 building layer modules, Table 1)."""
    return TransformerMT(vocab_size=vocab_size, d_model=16, num_heads=2, d_ff=32,
                         num_encoder_layers=2, num_decoder_layers=2, seed=seed)
