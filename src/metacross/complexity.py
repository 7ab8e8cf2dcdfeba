"""Analytical parameter and FLOP accounting.

Convention: one fused multiply-accumulate counts as 2 FLOPs, stated in every
report header. Per-element costs for the cheap ops are documented constants
below. Counts are exact integers from closed-form expressions; nothing here
executes the network.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import AttentionConfig, attention_flops
from .errors import ConfigError, ShapeError
from .metadata import N_MODALITIES

MAC_FLOPS = 2  # one multiply-accumulate = 2 FLOPs
SOFTMAX_FLOPS_PER_ELEMENT = 5   # max, subtract, exp, sum share, divide
GELU_FLOPS_PER_ELEMENT = 8
LN_FLOPS_PER_ELEMENT = 8        # two statistics passes plus normalize/affine
RELU_FLOPS_PER_ELEMENT = 1

REPORT_HEADER = "# counting convention: 1 multiply-accumulate = 2 FLOPs"


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    params: int
    flops: int


def linear_flops(n_positions: int, in_features: int, out_features: int, bias: bool) -> int:
    flops = MAC_FLOPS * n_positions * in_features * out_features
    if bias:
        flops += n_positions * out_features
    return flops


def conv_flops(n_positions: int, out_ch: int, in_ch: int, kernel_volume: int, bias: bool) -> int:
    flops = MAC_FLOPS * n_positions * out_ch * in_ch * kernel_volume
    if bias:
        flops += n_positions * out_ch
    return flops


# ---------------------------------------------------------------------------
# bottleneck stand-ins
#
# The baseline stand-in is one standard self-attention transformer layer on
# the N spatial tokens (Q/K/V/output projections, two layer norms, 4x FFN).
# Ours drops the four DxD projections and adds the metadata dictionary with
# its two E->D projections; the mask, norms, and FFN are shared structure.
# The shared patch tokenizer is excluded from both sides.


@dataclass
class BottleneckConfig:
    """Geometry shared by both bottleneck variants."""

    kind: str  # "self_attention" or "metadata_cross"
    embed_dim: int = 256
    input_extent: int = 64
    patch_size: int = 4
    encoder_downsamples: int = 1
    ffn_hidden: int | None = None
    n_layers: int = 1
    metadata_embed_dim: int = 16

    def __post_init__(self):
        if self.kind not in ("self_attention", "metadata_cross"):
            raise ConfigError(f"unknown bottleneck kind {self.kind!r}")
        if self.ffn_hidden is None:
            self.ffn_hidden = 4 * self.embed_dim
        for field_name in ("embed_dim", "input_extent", "patch_size", "ffn_hidden", "n_layers"):
            if getattr(self, field_name) < 1:
                raise ConfigError(f"{field_name} must be positive")
        down = (2 ** self.encoder_downsamples) * self.patch_size
        if self.input_extent % down:
            raise ShapeError(f"input extent {self.input_extent} not divisible by downsample {down}")

    @property
    def n_tokens(self) -> int:
        side = self.input_extent // ((2 ** self.encoder_downsamples) * self.patch_size)
        return side ** 3

    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(embed_dim=self.embed_dim, patch_size=self.patch_size,
                               ffn_hidden=self.ffn_hidden, n_layers=self.n_layers)


def metadata_encoder_row(name: str, embed_dim: int, width: int) -> LayerCost:
    """The four-entry modality dictionary and its two E->D projections (keys, values)."""
    return LayerCost(name, "encoder", N_MODALITIES * embed_dim + 2 * (embed_dim * width + width),
                     2 * linear_flops(N_MODALITIES, embed_dim, width, True))


def attention_layer_rows(name: str, att: AttentionConfig, n: int, mode: str) -> list[LayerCost]:
    """Attend (logits, softmax, weighted sum), both layer norms and the GELU FFN of one layer on n tokens."""
    d, f = att.embed_dim, att.ffn_hidden
    columns = n if mode == "self_attention" else N_MODALITIES
    return [
        LayerCost(f"{name}.attend", "attention", 0,
                  attention_flops(att, n, mode) + SOFTMAX_FLOPS_PER_ELEMENT * n * columns),
        LayerCost(f"{name}.norms", "norm", 4 * d, 2 * LN_FLOPS_PER_ELEMENT * n * d),
        LayerCost(f"{name}.ffn", "linear", d * f + f + f * d + d,
                  linear_flops(n, d, f, True) + GELU_FLOPS_PER_ELEMENT * n * f + linear_flops(n, f, d, True)),
    ]


def bottleneck_rows(cfg: BottleneckConfig) -> list[LayerCost]:
    """Per-layer cost table for one bottleneck variant."""
    n, d = cfg.n_tokens, cfg.embed_dim
    att = cfg.attention_config()
    rows: list[LayerCost] = []
    for layer in range(cfg.n_layers):
        tag = f"layer{layer}"
        if cfg.kind == "self_attention":
            rows.append(LayerCost(f"{tag}.qkvo_proj", "linear",
                                  4 * (d * d + d), 4 * linear_flops(n, d, d, True)))
        else:
            rows.append(metadata_encoder_row(f"{tag}.metadata_encoder", cfg.metadata_embed_dim, d))
        rows.extend(attention_layer_rows(tag, att, n, cfg.kind))
    return rows


@dataclass
class ComplexityReport:
    rows: list[LayerCost]

    def __post_init__(self):
        self.total_params = sum(r.params for r in self.rows)
        self.total_flops = sum(r.flops for r in self.rows)


def reduction_pct(baseline: int, ours: int) -> float:
    """Percent reduction (1 - ours/baseline) * 100, to one decimal."""
    if baseline <= 0:
        raise ConfigError("reduction undefined for a zero-cost baseline")
    return round((1.0 - ours / baseline) * 100.0, 1)


@dataclass
class BottleneckComparison:
    baseline: ComplexityReport
    ours: ComplexityReport
    n_tokens: int
    embed_dim: int

    @property
    def params_reduction_pct(self) -> float:
        return reduction_pct(self.baseline.total_params, self.ours.total_params)

    @property
    def flops_reduction_pct(self) -> float:
        return reduction_pct(self.baseline.total_flops, self.ours.total_flops)


def compare_bottlenecks(baseline_cfg: BottleneckConfig, ours_cfg: BottleneckConfig) -> BottleneckComparison:
    """Cost both variants at identical token count and width."""
    if baseline_cfg.n_tokens != ours_cfg.n_tokens:
        raise ConfigError(
            f"token counts differ: {baseline_cfg.n_tokens} vs {ours_cfg.n_tokens}; compare at matched geometry")
    if baseline_cfg.embed_dim != ours_cfg.embed_dim:
        raise ConfigError(f"widths differ: {baseline_cfg.embed_dim} vs {ours_cfg.embed_dim}")
    return BottleneckComparison(
        ComplexityReport(bottleneck_rows(baseline_cfg)),
        ComplexityReport(bottleneck_rows(ours_cfg)),
        baseline_cfg.n_tokens,
        baseline_cfg.embed_dim,
    )


# ---------------------------------------------------------------------------
# rendering


def _aligned_rows(comparison: BottleneckComparison) -> list[tuple[str, str, int, int, int, int]]:
    base = {r.name.split(".", 1)[-1]: r for r in comparison.baseline.rows}
    ours = {r.name.split(".", 1)[-1]: r for r in comparison.ours.rows}
    names = list(dict.fromkeys(list(base) + list(ours)))
    out = []
    for name in names:
        b = base.get(name)
        o = ours.get(name)
        kind = (b or o).kind
        out.append((name, kind,
                    b.params if b else 0, b.flops if b else 0,
                    o.params if o else 0, o.flops if o else 0))
    return out


def render_comparison_csv(comparison: BottleneckComparison) -> str:
    lines = [REPORT_HEADER,
             "layer,kind,baseline_params,baseline_flops,ours_params,ours_flops,"
             "params_reduction_pct,flops_reduction_pct"]
    for name, kind, bp, bf, op, of in _aligned_rows(comparison):
        pr = f"{reduction_pct(bp, op):.1f}" if bp > 0 else ""
        fr = f"{reduction_pct(bf, of):.1f}" if bf > 0 else ""
        lines.append(f"{name},{kind},{bp},{bf},{op},{of},{pr},{fr}")
    lines.append(
        f"total,total,{comparison.baseline.total_params},{comparison.baseline.total_flops},"
        f"{comparison.ours.total_params},{comparison.ours.total_flops},"
        f"{comparison.params_reduction_pct:.1f},{comparison.flops_reduction_pct:.1f}")
    return "\n".join(lines) + "\n"


def render_comparison_text(comparison: BottleneckComparison) -> str:
    width = max(len(n) for n, *_ in _aligned_rows(comparison)) + 2
    lines = [REPORT_HEADER,
             f"tokens N={comparison.n_tokens}, width D={comparison.embed_dim}",
             f"{'layer':<{width}}{'base params':>14}{'base flops':>16}{'ours params':>14}{'ours flops':>16}"]
    for name, _, bp, bf, op, of in _aligned_rows(comparison):
        lines.append(f"{name:<{width}}{bp:>14,}{bf:>16,}{op:>14,}{of:>16,}")
    lines.append(f"{'total':<{width}}{comparison.baseline.total_params:>14,}"
                 f"{comparison.baseline.total_flops:>16,}{comparison.ours.total_params:>14,}"
                 f"{comparison.ours.total_flops:>16,}")
    lines.append(f"parameter reduction: {comparison.params_reduction_pct:.1f}%")
    lines.append(f"flop reduction:      {comparison.flops_reduction_pct:.1f}%")
    return "\n".join(lines) + "\n"
