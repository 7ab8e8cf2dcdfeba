"""Analytical cost engine: exact counts, frozen reference totals, rendering."""

from pathlib import Path

import numpy as np
import pytest

from metacross.attention import AttentionConfig
from metacross.complexity import (
    GELU_FLOPS_PER_ELEMENT,
    LN_FLOPS_PER_ELEMENT,
    MAC_FLOPS,
    REPORT_HEADER,
    SOFTMAX_FLOPS_PER_ELEMENT,
    LayerCost,
    bottleneck_tokens,
    compare_bottlenecks,
    conv_flops,
    linear_flops,
    reduction_pct,
    render_comparison_csv,
    render_comparison_text,
)
from metacross.configfile import validate_config
from metacross.errors import ConfigError, ShapeError
from metacross.harness import attention_config_from_values
from metacross.nn import Conv, Linear
from metacross.segmentation import SegConfig, SegModel


def test_counting_constants():
    assert MAC_FLOPS == 2
    assert SOFTMAX_FLOPS_PER_ELEMENT == 5
    assert GELU_FLOPS_PER_ELEMENT == 8
    assert LN_FLOPS_PER_ELEMENT == 8
    assert "multiply-accumulate = 2 FLOPs" in REPORT_HEADER


def test_linear_and_conv_flops_closed_forms():
    assert linear_flops(10, 4, 8, bias=True) == 2 * 10 * 4 * 8 + 10 * 8
    assert linear_flops(10, 4, 8, bias=False) == 2 * 10 * 4 * 8
    assert conv_flops(100, 16, 3, 27, bias=True) == 2 * 100 * 16 * 3 * 27 + 100 * 16
    assert conv_flops(100, 16, 3, 27, bias=False) == 2 * 100 * 16 * 3 * 27


def _n_params(module) -> int:
    return sum(p.size for _, p in module.named_parameters())


def test_count_params_and_flops_on_layers():
    lin = Linear(32, 64, rng=np.random.default_rng(0))
    rows = lin.cost_rows((10, 32))
    assert sum(r.params for r in rows) == _n_params(lin) == 32 * 64 + 64
    assert sum(r.flops for r in rows) == linear_flops(10, 32, 64, bias=True)

    conv = Conv(2, 3, 8, kernel=3, stride=2, padding=1, rng=np.random.default_rng(1))
    rows = conv.cost_rows((2, 3, 16, 16))
    assert sum(r.params for r in rows) == _n_params(conv) == 8 * 3 * 9 + 8
    # 16x16 input halves to 8x8: 64 output positions per batch item
    assert sum(r.flops for r in rows) == conv_flops(2 * 64, 8, 3, 9, bias=True)


# ---------------------------------------------------------------------------
# bottlenecks

def _reference(n_layers: int = 1):
    # reference geometry: N=512 tokens, D=256, FFN 1024, E=16
    att = AttentionConfig(embed_dim=256, n_layers=n_layers)
    return compare_bottlenecks(att, bottleneck_tokens(64, 1, 4), 16)


def test_bottleneck_token_count():
    # 64 input, one stride-2 downsample, patch 4: (64 / 8)^3 = 512 tokens
    assert bottleneck_tokens(64, 1, 4) == 512
    assert bottleneck_tokens(64, 0, 4) == 4096
    assert AttentionConfig(embed_dim=256).ffn_hidden == 1024  # 4x width default


def test_bottleneck_token_count_rejects_a_non_dividing_downsample():
    with pytest.raises(ShapeError, match="not divisible"):
        bottleneck_tokens(60, 1, 4)
    with pytest.raises(ShapeError, match="not divisible"):
        bottleneck_tokens(64, 5, 4)
    # a downsample exponent far past the extent is refused without building 2^k
    with pytest.raises(ShapeError, match="not divisible"):
        bottleneck_tokens(64, 10 ** 20, 4)


def test_reference_totals_are_frozen():
    cmp = _reference()
    # baseline params: qkvo 4*(256^2+256)=263,168; norms 1024; ffn 525,568
    assert cmp.baseline.total_params == 789_760
    # ours params: encoder 4*16 + 2*(16*256+256)=8,768; norms 1024; ffn 525,568
    assert cmp.ours.total_params == 535_360

    assert cmp.baseline.total_flops == 1_082_523_648
    assert cmp.ours.total_flops == 545_992_704


def test_reference_totals_match_component_sums():
    cmp = _reference()
    by_name = {r.name: r for r in cmp.baseline.rows}
    n, d, f = 512, 256, 1024
    assert by_name["baseline.layer0.qkvo_proj"].params == 4 * (d * d + d)
    assert by_name["baseline.layer0.qkvo_proj"].flops == 4 * (2 * n * d * d + n * d)
    assert by_name["baseline.layer0.attend"].flops == 4 * n * n * d + 5 * n * n
    assert by_name["baseline.layer0.norms"].params == 4 * d
    assert by_name["baseline.layer0.norms"].flops == 2 * 8 * n * d
    assert by_name["baseline.layer0.ffn"].params == d * f + f + f * d + d
    assert by_name["baseline.layer0.ffn"].flops == (2 * n * d * f + n * f) + 8 * n * f + (2 * n * f * d + n * d)

    by_name = {r.name: r for r in cmp.ours.rows}
    e, m = 16, 4
    assert by_name["ours.metadata_encoder"].params == m * e + 2 * (e * d + d)
    assert by_name["ours.metadata_encoder"].flops == 2 * (2 * m * e * d + m * d)
    assert by_name["ours.block0.attend"].flops == 4 * n * m * d + 5 * n * m


def _attend_flops(comparison):
    """The one attend row of each side, baseline first, of a one-layer comparison."""
    return tuple(next(r.flops for r in side.rows if r.kind == "attention")
                 for side in (comparison.baseline, comparison.ours))


def test_attend_rows_at_the_reference_points():
    # N=4096 tokens, D=256: 4*N*N*D against 4*N*M*D, plus the softmax over the same columns
    dense, cross = _attend_flops(compare_bottlenecks(AttentionConfig(embed_dim=256), 4096, 16))
    assert dense == 17_179_869_184 + 5 * 4096 * 4096
    assert cross == 16_777_216 + 5 * 4096 * 4
    # both rows are n * columns * (4D + 5), so the ratio is N/M exactly
    assert dense == 1024 * cross


def test_attend_rows_scale_with_their_columns():
    # cross-attention is linear in the token count, self-attention quadratic
    att = AttentionConfig(embed_dim=64)
    (dense_100, cross_100), (dense_200, cross_200) = (
        _attend_flops(compare_bottlenecks(att, n, 16)) for n in (100, 200))
    assert cross_200 == 2 * cross_100
    assert dense_200 == 4 * dense_100


@pytest.mark.parametrize("n_layers, deep_supervision", [(1, False), (2, False), (1, True)])
def test_seg_model_rows_match_the_comparison(n_layers, deep_supervision):
    # the comparison costs the bottleneck the model builds, row for row
    att = AttentionConfig(embed_dim=8, patch_size=2, ffn_hidden=12, n_layers=n_layers)
    cfg = SegConfig(extent=16, attention=att, encoder_channels=(4,), decoder_channels=(8, 4),
                    deep_supervision=deep_supervision, metadata_embed_dim=6)
    model = SegModel(cfg, rng=np.random.default_rng(0))
    rows = model.cost_rows()
    assert any(r.name == "seg.aux0" for r in rows) == deep_supervision
    n = bottleneck_tokens(16, 1, 2)
    assert n == cfg.n_tokens
    bottleneck = [(r.name.split(".", 1)[1], r.kind, r.params, r.flops) for r in rows
                  if r.name == "seg.metadata_encoder" or r.name.startswith("seg.block")]
    ours = compare_bottlenecks(att, n, 6).ours.rows
    assert [(r.name.split(".", 1)[1], r.kind, r.params, r.flops) for r in ours] == bottleneck
    # the model builds one dictionary for all its layers
    assert len(bottleneck) == 1 + 3 * n_layers
    # the formulas count exactly the parameters the modules hold
    assert sum(r.params for r in rows) == _n_params(model)


def test_reduction_percentages():
    cmp = _reference()
    assert cmp.params_reduction_pct == 32.2
    assert cmp.flops_reduction_pct == 49.6


def test_layers_scale_both_sides():
    cmp, one = _reference(n_layers=2), _reference()
    assert cmp.baseline.total_flops == 2 * one.baseline.total_flops
    assert cmp.baseline.total_params == 2 * one.baseline.total_params
    # every layer but the one shared dictionary doubles
    encoder = next(r for r in one.ours.rows if r.name == "ours.metadata_encoder")
    assert cmp.ours.total_params == 2 * one.ours.total_params - encoder.params
    assert cmp.ours.total_flops == 2 * one.ours.total_flops - encoder.flops


def test_two_layer_report_rows_add_up_to_the_total():
    lines = render_comparison_csv(_reference(n_layers=2)).strip().split("\n")
    body = [line.split(",") for line in lines[2:-1]]
    total = lines[-1].split(",")
    for col in range(2, 6):
        assert sum(int(row[col]) for row in body) == int(total[col])
    # the dictionary is counted once, not once per layer
    assert total[4:] == ["1061952", "1091917824", "32.8", "49.6"]
    assert total[2:4] == ["1579520", "2165047296"]


def test_reduction_pct_rounding_and_errors():
    assert reduction_pct(1000, 500) == 50.0
    assert reduction_pct(3, 2) == 33.3
    assert reduction_pct(100, 150) == -50.0
    with pytest.raises(ConfigError):
        reduction_pct(0, 5)


# ---------------------------------------------------------------------------
# rendering


def test_render_comparison_csv_schema():
    cmp = _reference()
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
    cmp = _reference()
    text = render_comparison_text(cmp)
    assert text.startswith(REPORT_HEADER)
    assert "tokens N=512, width D=256" in text
    assert "parameter reduction: 32.2%" in text
    assert "flop reduction:      49.6%" in text


def test_rendering_is_deterministic():
    a = render_comparison_csv(_reference())
    b = render_comparison_csv(_reference())
    assert a == b


def test_readme_default_report_is_the_rendered_one():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```\n" + REPORT_HEADER) + len("```\n")
    documented = readme[start:readme.index("```", start)]
    values = validate_config({}, "complexity")
    n = bottleneck_tokens(values["input_extent"], values["encoder_downsamples"], values["patch_size"])
    comparison = compare_bottlenecks(attention_config_from_values(values), n, values["metadata_embed_dim"])
    assert documented == render_comparison_text(comparison)
