"""Layers, parameter discovery, and the optimizer."""

import numpy as np
import pytest

import metacross.tensor as T
from metacross.attention import AttentionConfig, CrossAttentionBlock, PatchTokenizer
from metacross.classifier import ClassifierConfig, FilmClassifier
from metacross.configfile import validate_config
from metacross.errors import ConfigError, NumericError, ShapeError
from metacross.harness import _cls_loss, seg_config_from_values
from metacross.metadata import FilmGenerator, MetadataEmbeddings, MetadataEncoder, ModalityMask
from metacross.nn import (
    Adam,
    Conv,
    LayerNorm,
    Linear,
    Module,
    clip_grad_norm,
    optimize,
    parameter,
)
from metacross.phantoms import PhantomSpec, generate_cls_phantoms
from metacross.segmentation import SegBatch, SegConfig, SegModel, train_step
from metacross.tensor import Tape, Tensor


class _Nested(Module):
    def __init__(self):
        self.lin = Linear(2, 3, rng=np.random.default_rng(0))
        self.stack = [Linear(3, 3, rng=np.random.default_rng(1)),
                      Linear(3, 1, rng=np.random.default_rng(2))]
        self.by_key = {"a": LayerNorm(3)}
        self.loose = parameter(np.random.default_rng(3), (4,), 1.0)
        self.constant = Tensor(np.zeros(2))  # no grad, must not be collected


def test_named_parameters_walks_nested_containers():
    names = [n for n, _ in _Nested().named_parameters()]
    assert names == [
        "lin.weight", "lin.bias",
        "stack.0.weight", "stack.0.bias",
        "stack.1.weight", "stack.1.bias",
        "by_key.a.gain", "by_key.a.bias",
        "loose",
    ]


def test_parameter_counts_and_zero_grad():
    m = _Nested()
    assert m.n_parameters() == (2 * 3 + 3) + (3 * 3 + 3) + (3 * 1 + 1) + (3 + 3) + 4
    for p in m.parameters():
        p.grad = np.ones_like(p.data)
    m.zero_grad()
    assert all(p.grad is None for p in m.parameters())


def test_linear_matches_matrix_oracle():
    rng = np.random.default_rng(4)
    lin = Linear(5, 3, rng=np.random.default_rng(5))
    x = rng.normal(size=(7, 5))
    got = lin(Tensor(x))
    assert np.allclose(got.data, x @ lin.weight.data + lin.bias.data, atol=1e-15)
    assert np.all(lin.bias.data == 0.0)


def test_conv_modules_wrap_tensor_ops():
    rng = np.random.default_rng(7)
    conv = Conv(2, 2, 3, kernel=3, stride=2, padding=1, rng=np.random.default_rng(8))
    x = Tensor(rng.normal(size=(1, 2, 8, 8)))
    got = conv(x)
    want = T.conv2d(x, conv.weight, conv.bias, stride=2, padding=1)
    assert np.array_equal(got.data, want.data)
    assert conv.output_extent(8) == 4

    conv3 = Conv(3, 1, 2, kernel=3, stride=2, padding=1, rng=np.random.default_rng(9))
    v = Tensor(rng.normal(size=(1, 1, 6, 6, 6)))
    got3 = conv3(v)
    want3 = T.conv3d(v, conv3.weight, conv3.bias, stride=2, padding=1)
    assert np.array_equal(got3.data, want3.data)
    assert [n for n, _ in conv3.named_parameters()] == ["weight", "bias"]
    assert conv3.weight.shape == (2, 1, 3, 3, 3)


def test_conv_looks_up_its_op_per_call(monkeypatch):
    conv = Conv(3, 1, 1, kernel=1, rng=np.random.default_rng(10))
    calls = []
    monkeypatch.setattr(T, "conv3d", lambda *args, **kwargs: calls.append(args) or args[0])
    conv(Tensor(np.zeros((1, 1, 2, 2, 2))))
    assert len(calls) == 1


def test_conv_rejects_bad_rank_and_cost_shape():
    with pytest.raises(ConfigError, match="rank 2 or 3"):
        Conv(1, 1, 1, kernel=1, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        Conv(2, 1, 1, kernel=1, rng=np.random.default_rng(0)).cost_rows((1, 1, 4, 4, 4))


def test_layer_norm_module_defaults():
    ln = LayerNorm(6)
    assert np.all(ln.gain.data == 1.0)
    assert np.all(ln.bias.data == 0.0)
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(3, 6)))
    assert np.array_equal(ln(x).data, T.layer_norm(x, ln.gain, ln.bias).data)


@pytest.mark.parametrize("build", [
    lambda: Linear(2, 3),
    lambda: Conv(2, 1, 1, kernel=3),
    lambda: PatchTokenizer(1, (4, 4, 4), AttentionConfig(embed_dim=4, patch_size=2)),
    lambda: CrossAttentionBlock(AttentionConfig(embed_dim=4)),
    lambda: MetadataEmbeddings(),
    lambda: FilmGenerator(3),
    lambda: MetadataEncoder(4, 4),
], ids=["Linear", "Conv", "PatchTokenizer", "CrossAttentionBlock", "MetadataEmbeddings", "FilmGenerator",
        "MetadataEncoder"])
def test_layers_need_their_models_generator(build):
    # a layer built without one used to draw from seed 0, equal to every other such layer
    with pytest.raises(TypeError, match="rng"):
        build()


@pytest.mark.parametrize("model", [lambda: SegModel(SegConfig()), lambda: FilmClassifier(ClassifierConfig())],
                         ids=["SegModel", "FilmClassifier"])
def test_default_models_draw_no_two_parameters_alike(model):
    # every layer draws from the model's one generator, so no two random initialisations repeat
    # (the four stems, meta_encoder.k_proj.weight and v_proj.weight, ...); constant ones are skipped
    drawn = [(name, p.data) for name, p in model().named_parameters() if np.ptp(p.data) > 0]
    assert len(drawn) > 1
    for i, (a, da) in enumerate(drawn):
        for b, db in drawn[i + 1:]:
            assert da.shape != db.shape or da.tobytes() != db.tobytes(), f"{a} and {b} start equal"


# ---------------------------------------------------------------------------
# gradient plumbing


def test_global_grad_norm_skips_missing_gradients():
    # the norm clip_grad_norm returns counts no gradient for b and leaves it None
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([3.0, 4.0])
    assert clip_grad_norm([a, b], 10.0) == 5.0
    assert b.grad is None and np.array_equal(a.grad, [3.0, 4.0])
    assert clip_grad_norm([b, a], 1.0) == 5.0
    assert b.grad is None and np.allclose(a.grad, [0.6, 0.8], atol=1e-15)


def test_clip_grad_norm_scales_and_reports():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([3.0, 4.0])
    returned = clip_grad_norm([p], 1.0)
    assert returned == 5.0
    assert np.allclose(p.grad, [0.6, 0.8], atol=1e-15)

    q = Tensor(np.zeros(2), requires_grad=True)
    q.grad = np.array([0.3, 0.4])
    assert clip_grad_norm([q], 1.0) == 0.5
    assert np.array_equal(q.grad, [0.3, 0.4])  # under the cap, untouched


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_step_applies_decay_only():
    p = Tensor(np.array([2.0, -4.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = Adam()
    opt.step([("p", p)], lr=0.1, weight_decay=0.5)
    # decoupled decay: p *= (1 - lr*wd); zero gradient adds nothing
    assert np.allclose(p.data, [2.0 * 0.95, -4.0 * 0.95], atol=1e-15)


def test_adam_first_step_is_signed_learning_rate():
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    p.grad = np.array([10.0, -0.25])
    Adam().step([("p", p)], lr=0.01)
    # bias correction makes m_hat = g and v_hat = g^2 on step one, so the
    # update is lr * g / (|g| + eps) ~ lr * sign(g)
    assert np.allclose(p.data, [1.0 - 0.01, 1.0 + 0.01], atol=1e-8)


def test_adam_state_tracks_parameters_by_name():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam()
    p.grad = np.array([1.0])
    opt.step([("p", p)], lr=0.1)
    assert opt.t == 1
    assert "p" in opt.m and "p" in opt.v
    p.grad = np.array([1.0])
    opt.step([("p", p)], lr=0.1)
    assert opt.t == 2


def test_adam_in_place_moments_match_the_out_of_place_formula_bitwise():
    rng = np.random.default_rng(11)
    shapes = {"w": (3, 4), "b": (4,), "k": (2, 1, 3, 3)}
    params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
    want = {n: p.data.copy() for n, p in params.items()}
    m = {n: np.zeros(s) for n, s in shapes.items()}
    v = {n: np.zeros(s) for n, s in shapes.items()}
    opt, b1, b2, eps, lr, wd = Adam(), 0.9, 0.999, 1e-8, 0.01, 0.1
    for t in range(1, 4):
        for n, p in params.items():
            p.grad = rng.normal(size=shapes[n])
            want[n] -= lr * wd * want[n]
            m[n] = b1 * m[n] + (1.0 - b1) * p.grad
            v[n] = b2 * v[n] + (1.0 - b2) * (p.grad * p.grad)
            want[n] -= lr * (m[n] / (1.0 - b1 ** t)) / (np.sqrt(v[n] / (1.0 - b2 ** t)) + eps)
        opt.step(list(params.items()), lr=lr, weight_decay=wd)
    for n, p in params.items():
        assert p.data.tobytes() == want[n].tobytes()
        assert opt.m[n].tobytes() == m[n].tobytes() and opt.v[n].tobytes() == v[n].tobytes()


def test_adam_descends_a_quadratic():
    # minimize (x - 3)^2 from x = 0
    x = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam()
    for _ in range(400):
        x.grad = None
        with Tape() as tape:
            diff = T.sub(x, Tensor(np.array([3.0])))
            loss = T.sum_(T.mul(diff, diff))
            tape.backward(loss)
        opt.step([("x", x)], lr=0.05)
    assert abs(x.data[0] - 3.0) < 1e-2


def test_optimize_on_a_poisoned_model_moves_nothing():
    model = Linear(3, 2, rng=np.random.default_rng(4))
    x = Tensor(np.random.default_rng(5).normal(size=(4, 3)))
    opt = Adam()
    first = optimize(model, lambda: T.sum_(model(x)), opt, lr=0.1, weight_decay=0.01, clip=1.0)
    assert np.isfinite(first) and opt.t == 1

    model.weight.data[1, 0] = np.nan
    params = [p.data.tobytes() for p in model.parameters()]
    moments = {name: (opt.m[name].tobytes(), opt.v[name].tobytes()) for name in opt.m}
    with pytest.raises(NumericError, match="first bad op: matmul"):
        optimize(model, lambda: T.sum_(model(x)), opt, lr=0.1, weight_decay=0.01, clip=1.0)
    assert [p.data.tobytes() for p in model.parameters()] == params
    assert opt.t == 1
    assert {name: (opt.m[name].tobytes(), opt.v[name].tobytes()) for name in opt.m} == moments


def test_optimize_names_the_first_parameter_the_update_leaves_non_finite():
    model = Linear(3, 2, rng=np.random.default_rng(4))
    x = Tensor(np.random.default_rng(5).normal(size=(4, 3)))
    opt = Adam()
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="parameter weight is non-finite"):
        optimize(model, lambda: T.sum_(model(x)), opt, lr=10.0, weight_decay=1e308, clip=1.0)
    # the check follows the update: the step was taken
    assert opt.t == 1 and not np.isfinite(model.weight.data).any()


def test_missing_gradient_is_treated_as_zero():
    p = Tensor(np.array([5.0]), requires_grad=True)
    p.grad = None
    Adam().step([("p", p)], lr=0.1)
    assert p.data[0] == 5.0


# ---------------------------------------------------------------------------
# gradient handover


class _AddedPair(Module):
    """Two parameters that meet in one add: both operands take the add's gradient."""

    def __init__(self):
        self.a = Tensor(np.ones(3), requires_grad=True)
        self.b = Tensor(np.full(3, 2.0), requires_grad=True)

    def loss(self) -> Tensor:
        return T.sum_(T.mul(T.add(self.a, self.b), Tensor([1.0, 2.0, 3.0])))


def _assert_no_shared_gradients(model: Module) -> None:
    grads = [(name, p.grad) for name, p in model.named_parameters() if p.grad is not None]
    assert len(grads) == len(model.parameters())
    for i, (a, ga) in enumerate(grads):
        for b, gb in grads[i + 1:]:
            assert not np.may_share_memory(ga, gb), f"{a} and {b} share a gradient buffer"


def test_no_two_parameters_share_a_gradient_after_a_step():
    pair = _AddedPair()
    optimize(pair, pair.loss, Adam(), lr=0.1, weight_decay=0.0, clip=1.0)
    _assert_no_shared_gradients(pair)

    values = validate_config({"extent": "16"}, "seg")
    seg = SegModel(seg_config_from_values(values), rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    batch = SegBatch(Tensor(rng.normal(size=(4, 16, 16, 16))), ModalityMask([True] * 4),
                     (rng.random((16, 16, 16)) < 0.3).astype(np.int64))
    train_step(seg, batch, Adam())
    _assert_no_shared_gradients(seg)

    cls = FilmClassifier(ClassifierConfig(), rng=np.random.default_rng(8))
    samples = generate_cls_phantoms(PhantomSpec(extent=20, n_samples=4, seed=9), 2)
    optimize(cls, lambda: _cls_loss(cls, samples), Adam(), lr=1e-3, weight_decay=1e-4, clip=1.0)
    _assert_no_shared_gradients(cls)
