"""Analytical parameter and FLOP accounting.

Convention: one fused multiply-accumulate counts as 2 FLOPs, stated in every
report header. Per-element costs for the cheap ops are documented constants
below. Counts are exact integers from closed-form expressions; nothing here
executes the network.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import AttentionConfig
from .errors import ConfigError, ShapeError
from .metadata import N_MODALITIES

MAC_FLOPS = 2  # one multiply-accumulate = 2 FLOPs
SOFTMAX_FLOPS_PER_ELEMENT = 5   # max, subtract, exp, sum share, divide
GELU_FLOPS_PER_ELEMENT = 8
LN_FLOPS_PER_ELEMENT = 8        # two statistics passes plus normalize/affine

REPORT_HEADER = "# counting convention: 1 multiply-accumulate = 2 FLOPs"


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    params: int
    flops: int


def linear_flops(n_positions: int, in_features: int, out_features: int) -> int:
    return MAC_FLOPS * n_positions * in_features * out_features + n_positions * out_features


def conv_flops(n_positions: int, out_ch: int, in_ch: int, kernel_volume: int) -> int:
    return MAC_FLOPS * n_positions * out_ch * in_ch * kernel_volume + n_positions * out_ch


# ---------------------------------------------------------------------------
# bottlenecks
#
# Ours is the bottleneck SegModel builds: one metadata dictionary with its two
# E->D projections, shared by every cross-attention layer. The baseline
# stand-in has, per layer, a standard self-attention transformer layer on the
# N spatial tokens: Q/K/V/output projections plus the same norms and FFN.
# The shared patch tokenizer is excluded from both sides.


def bottleneck_tokens(input_extent: int, encoder_downsamples: int, patch_size: int) -> int:
    """Token count N: the cubic patches of side 2^encoder_downsamples * patch_size tiling the input."""
    # a 2^k above the extent cannot divide it, so a huge k is refused before 2^k is built
    down = (2 ** encoder_downsamples) * patch_size if encoder_downsamples < input_extent.bit_length() else 0
    if not down or input_extent % down:
        raise ShapeError(f"input extent {input_extent} not divisible by downsample "
                         f"2^{encoder_downsamples} x patch {patch_size}")
    return (input_extent // down) ** 3


def metadata_encoder_row(name: str, embed_dim: int, width: int) -> LayerCost:
    """The four-entry modality dictionary and its two E->D projections (keys, values)."""
    return LayerCost(name, "encoder", N_MODALITIES * embed_dim + 2 * (embed_dim * width + width),
                     2 * linear_flops(N_MODALITIES, embed_dim, width))


def attention_layer_rows(name: str, att: AttentionConfig, n: int, columns: int) -> list[LayerCost]:
    """Attend (logits, softmax, weighted sum over ``columns`` keys: N for self-attention,
    M for the metadata dictionary), both layer norms and the GELU FFN of one layer on n tokens."""
    d, f = att.embed_dim, att.ffn_hidden
    return [
        LayerCost(f"{name}.attend", "attention", 0,
                  2 * MAC_FLOPS * n * columns * d + SOFTMAX_FLOPS_PER_ELEMENT * n * columns),
        LayerCost(f"{name}.norms", "norm", 4 * d, 2 * LN_FLOPS_PER_ELEMENT * n * d),
        LayerCost(f"{name}.ffn", "linear", d * f + f + f * d + d,
                  linear_flops(n, d, f) + GELU_FLOPS_PER_ELEMENT * n * f + linear_flops(n, f, d)),
    ]


def metadata_cross_rows(name: str, att: AttentionConfig, n: int, metadata_embed_dim: int) -> list[LayerCost]:
    """The dictionary once, then one cross-attention block per layer, as SegModel builds them."""
    rows = [metadata_encoder_row(f"{name}.metadata_encoder", metadata_embed_dim, att.embed_dim)]
    for i in range(att.n_layers):
        rows.extend(attention_layer_rows(f"{name}.block{i}", att, n, N_MODALITIES))
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


def compare_bottlenecks(att: AttentionConfig, n_tokens: int, metadata_embed_dim: int) -> BottleneckComparison:
    """Cost both variants from one geometry: width, FFN and depth from ``att``, N tokens."""
    d = att.embed_dim
    baseline: list[LayerCost] = []
    for i in range(att.n_layers):
        baseline.append(LayerCost(f"baseline.layer{i}.qkvo_proj", "linear",
                                  4 * (d * d + d), 4 * linear_flops(n_tokens, d, d)))
        baseline.extend(attention_layer_rows(f"baseline.layer{i}", att, n_tokens, n_tokens))
    return BottleneckComparison(
        ComplexityReport(baseline),
        ComplexityReport(metadata_cross_rows("ours", att, n_tokens, metadata_embed_dim)),
        n_tokens,
        d,
    )


# ---------------------------------------------------------------------------
# rendering


def _aligned_rows(comparison: BottleneckComparison) -> list[tuple[str, str, int, int, int, int]]:
    """One row per part (the last name component), each side summed over its layers."""
    parts: dict[str, list] = {}
    for side, rows in enumerate((comparison.baseline.rows, comparison.ours.rows)):
        for r in rows:
            part = parts.setdefault(r.name.rsplit(".", 1)[-1], [r.kind, 0, 0, 0, 0])
            part[1 + 2 * side] += r.params
            part[2 + 2 * side] += r.flops
    return [(name, *part) for name, part in parts.items()]


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
