"""Analytical cost engine: exact counts, frozen reference totals, rendering."""

import numpy as np
import pytest

from metacross.attention import AttentionConfig
from metacross.complexity import (
    GELU_FLOPS_PER_ELEMENT,
    LN_FLOPS_PER_ELEMENT,
    MAC_FLOPS,
    RELU_FLOPS_PER_ELEMENT,
    REPORT_HEADER,
    SOFTMAX_FLOPS_PER_ELEMENT,
    BottleneckConfig,
    ComplexityReport,
    LayerCost,
    bottleneck_rows,
    compare_bottlenecks,
    conv_flops,
    count_flops,
    count_params,
    linear_flops,
    reduction_pct,
    render_comparison_csv,
    render_comparison_text,
)
from metacross.errors import ConfigError, ShapeError
from metacross.nn import Conv, Linear
from metacross.segmentation import SegConfig, SegModel


def test_counting_constants():
    assert MAC_FLOPS == 2
    assert SOFTMAX_FLOPS_PER_ELEMENT == 5
    assert GELU_FLOPS_PER_ELEMENT == 8
    assert LN_FLOPS_PER_ELEMENT == 8
    assert RELU_FLOPS_PER_ELEMENT == 1
    assert "multiply-accumulate = 2 FLOPs" in REPORT_HEADER


def test_linear_and_conv_flops_closed_forms():
    assert linear_flops(10, 4, 8, bias=True) == 2 * 10 * 4 * 8 + 10 * 8
    assert linear_flops(10, 4, 8, bias=False) == 2 * 10 * 4 * 8
    assert conv_flops(100, 16, 3, 27, bias=True) == 2 * 100 * 16 * 3 * 27 + 100 * 16
    assert conv_flops(100, 16, 3, 27, bias=False) == 2 * 100 * 16 * 3 * 27


def test_count_params_and_flops_on_layers():
    lin = Linear(32, 64, rng=np.random.default_rng(0))
    assert count_params(lin) == 32 * 64 + 64
    assert count_flops(lin, (10, 32)) == linear_flops(10, 32, 64, bias=True)

    conv = Conv(2, 3, 8, kernel=3, stride=2, padding=1, rng=np.random.default_rng(1))
    assert count_params(conv) == 8 * 3 * 9 + 8
    # 16x16 input halves to 8x8: 64 output positions per batch item
    assert count_flops(conv, (2, 3, 16, 16)) == conv_flops(2 * 64, 8, 3, 9, bias=True)


def test_count_flops_requires_cost_rows():
    with pytest.raises(ConfigError, match="does not describe"):
        count_flops(object(), (1, 2))


# ---------------------------------------------------------------------------
# bottleneck stand-ins


def test_bottleneck_token_count():
    cfg = BottleneckConfig(kind="self_attention")
    # 64 input, one stride-2 downsample, patch 4: (64 / 8)^3 = 512 tokens
    assert cfg.n_tokens == 512
    assert cfg.ffn_hidden == 1024  # 4x width default


def test_bottleneck_config_validation():
    with pytest.raises(ConfigError, match="unknown bottleneck kind"):
        BottleneckConfig(kind="typo")
    with pytest.raises(ConfigError):
        BottleneckConfig(kind="self_attention", embed_dim=0)
    with pytest.raises(ShapeError, match="not divisible"):
        BottleneckConfig(kind="self_attention", input_extent=60)


def test_reference_totals_are_frozen():
    # reference geometry: N=512 tokens, D=256, FFN 1024, E=16, one layer
    base = ComplexityReport(bottleneck_rows(BottleneckConfig(kind="self_attention")))
    ours = ComplexityReport(bottleneck_rows(BottleneckConfig(kind="metadata_cross")))

    # baseline params: qkvo 4*(256^2+256)=263,168; norms 1024; ffn 525,568
    assert base.total_params == 789_760
    # ours params: encoder 4*16 + 2*(16*256+256)=8,512; norms 1024; ffn 525,568
    assert ours.total_params == 535_360

    assert base.total_flops == 1_082_523_648
    assert ours.total_flops == 545_992_704


def test_reference_totals_match_component_sums():
    base_rows = bottleneck_rows(BottleneckConfig(kind="self_attention"))
    by_name = {r.name: r for r in base_rows}
    n, d, f = 512, 256, 1024
    assert by_name["layer0.qkvo_proj"].params == 4 * (d * d + d)
    assert by_name["layer0.qkvo_proj"].flops == 4 * (2 * n * d * d + n * d)
    assert by_name["layer0.attend"].flops == 4 * n * n * d + 5 * n * n
    assert by_name["layer0.norms"].params == 4 * d
    assert by_name["layer0.norms"].flops == 2 * 8 * n * d
    assert by_name["layer0.ffn"].params == d * f + f + f * d + d
    assert by_name["layer0.ffn"].flops == (2 * n * d * f + n * f) + 8 * n * f + (2 * n * f * d + n * d)

    ours_rows = bottleneck_rows(BottleneckConfig(kind="metadata_cross"))
    by_name = {r.name: r for r in ours_rows}
    e, m = 16, 4
    assert by_name["layer0.metadata_encoder"].params == m * e + 2 * (e * d + d)
    assert by_name["layer0.metadata_encoder"].flops == 2 * (2 * m * e * d + m * d)
    assert by_name["layer0.attend"].flops == 4 * n * m * d + 5 * n * m


@pytest.mark.parametrize("n_layers, deep_supervision", [(1, False), (2, False), (1, True)])
def test_seg_model_rows_match_bottleneck_rows(n_layers, deep_supervision):
    # the model's own cost table and the stand-in agree at matched geometry
    att = AttentionConfig(embed_dim=8, patch_size=2, ffn_hidden=12, n_layers=n_layers)
    cfg = SegConfig(extent=16, attention=att, encoder_channels=(4,), decoder_channels=(8, 4),
                    deep_supervision=deep_supervision, metadata_embed_dim=6)
    model = SegModel(cfg, rng=np.random.default_rng(0))
    seg = {r.name: r for r in model.cost_rows()}
    assert ("seg.aux0" in seg) == deep_supervision
    matched = BottleneckConfig(kind="metadata_cross", embed_dim=8, input_extent=16, patch_size=2,
                               encoder_downsamples=1, ffn_hidden=12,
                               n_layers=n_layers, metadata_embed_dim=6)
    assert matched.n_tokens == cfg.n_tokens
    for row in bottleneck_rows(matched):
        layer, part = row.name.split(".")
        # the model builds one dictionary for all its layers
        name = "seg.metadata_encoder" if part == "metadata_encoder" else f"seg.block{layer[5:]}.{part}"
        assert (seg[name].kind, seg[name].params, seg[name].flops) == (row.kind, row.params, row.flops)
    # the formulas count exactly the parameters the modules hold
    assert sum(r.params for r in seg.values()) == count_params(model)


def test_reduction_percentages():
    cmp = compare_bottlenecks(BottleneckConfig(kind="self_attention"),
                              BottleneckConfig(kind="metadata_cross"))
    assert cmp.params_reduction_pct == 32.2
    assert cmp.flops_reduction_pct == 49.6


def test_layers_scale_both_sides():
    cmp = compare_bottlenecks(
        BottleneckConfig(kind="self_attention", n_layers=2),
        BottleneckConfig(kind="metadata_cross", n_layers=2))
    one = compare_bottlenecks(BottleneckConfig(kind="self_attention"),
                              BottleneckConfig(kind="metadata_cross"))
    assert cmp.baseline.total_flops == 2 * one.baseline.total_flops
    assert cmp.ours.total_params == 2 * one.ours.total_params


def test_reduction_pct_rounding_and_errors():
    assert reduction_pct(1000, 500) == 50.0
    assert reduction_pct(3, 2) == 33.3
    assert reduction_pct(100, 150) == -50.0
    with pytest.raises(ConfigError):
        reduction_pct(0, 5)


def test_compare_requires_matched_geometry():
    with pytest.raises(ConfigError, match="token counts differ"):
        compare_bottlenecks(BottleneckConfig(kind="self_attention"),
                            BottleneckConfig(kind="metadata_cross", input_extent=32))
    with pytest.raises(ConfigError, match="widths differ"):
        compare_bottlenecks(BottleneckConfig(kind="self_attention"),
                            BottleneckConfig(kind="metadata_cross", embed_dim=128))


# ---------------------------------------------------------------------------
# rendering


def test_render_comparison_csv_schema():
    cmp = compare_bottlenecks(BottleneckConfig(kind="self_attention"),
                              BottleneckConfig(kind="metadata_cross"))
    lines = render_comparison_csv(cmp).strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert lines[1].split(",") == ["layer", "kind", "baseline_params", "baseline_flops",
                                   "ours_params", "ours_flops",
                                   "params_reduction_pct", "flops_reduction_pct"]
    total = lines[-1].split(",")
    assert total[0] == "total"
    assert total[2] == "789760" and total[4] == "535360"
    assert total[3] == "1082523648" and total[5] == "545992704"
    assert total[6] == "32.2" and total[7] == "49.6"
    # rows whose baseline cost is zero leave the percentage blank
    attend = next(l for l in lines if l.startswith("attend,"))
    assert attend.split(",")[6] == ""


def test_render_comparison_text_footer():
    cmp = compare_bottlenecks(BottleneckConfig(kind="self_attention"),
                              BottleneckConfig(kind="metadata_cross"))
    text = render_comparison_text(cmp)
    assert text.startswith(REPORT_HEADER)
    assert "tokens N=512, width D=256" in text
    assert "parameter reduction: 32.2%" in text
    assert "flop reduction:      49.6%" in text


def test_rendering_is_deterministic():
    a = render_comparison_csv(compare_bottlenecks(BottleneckConfig(kind="self_attention"),
                                                  BottleneckConfig(kind="metadata_cross")))
    b = render_comparison_csv(compare_bottlenecks(BottleneckConfig(kind="self_attention"),
                                                  BottleneckConfig(kind="metadata_cross")))
    assert a == b
