"""Parameter containers, basic layers, and the optimizer.

Modules discover parameters by walking attributes in construction order, so
``named_parameters`` is deterministic for a deterministically built model.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tape, Tensor


def parameter(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


class Module:
    """Base class: anything holding Tensors, child Modules, or lists of them."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []

        def walk(key: str, value) -> None:
            if isinstance(value, Tensor):
                if value.needs_grad:
                    out.append((key, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(f"{key}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    walk(f"{key}.{i}", item)
            elif isinstance(value, dict):
                for k, item in value.items():
                    walk(f"{key}.{k}", item)

        for name, value in vars(self).items():
            walk(f"{prefix}{name}", value)
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


class Linear(Module):
    """Affine map ``x @ weight + bias`` on rank-2 inputs."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator):
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = parameter(rng, (self.in_features, self.out_features), 1.0 / np.sqrt(self.in_features))
        self.bias = Tensor(np.zeros(self.out_features), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)

    def cost_rows(self, input_shape: tuple[int, ...], name: str = "linear"):
        from .complexity import LayerCost, linear_flops

        if len(input_shape) != 2 or input_shape[1] != self.in_features:
            raise ShapeError(f"linear cost: input {input_shape} incompatible with in_features {self.in_features}")
        n = input_shape[0]
        params = self.weight.size + self.bias.size
        return [LayerCost(name, "linear", params, linear_flops(n, self.in_features, self.out_features))]


class Conv(Module):
    """Convolution over ``rank`` (2 or 3) spatial axes with a cubic kernel."""

    def __init__(self, rank: int, in_ch: int, out_ch: int, kernel: int, stride: int = 1, padding: int = 0,
                 *, rng: np.random.Generator):
        if rank not in (2, 3):
            raise ConfigError(f"convolutions have rank 2 or 3, got {rank}")
        self.rank = int(rank)
        self.in_ch, self.out_ch = int(in_ch), int(out_ch)
        self.kernel, self.stride, self.padding = int(kernel), int(stride), int(padding)
        fan_in = self.in_ch * self.kernel ** self.rank
        self.weight = parameter(rng, (self.out_ch, self.in_ch) + (self.kernel,) * self.rank, 1.0 / np.sqrt(fan_in))
        self.bias = Tensor(np.zeros(self.out_ch), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        # looked up per call, so a wrapper swapped into the tensor module sees every conv
        op = T.conv2d if self.rank == 2 else T.conv3d
        return op(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def output_extent(self, extent: int) -> int:
        return T.conv_output_extent(extent, self.kernel, self.stride, self.padding)

    def cost_rows(self, input_shape: tuple[int, ...], name: str | None = None):
        from .complexity import LayerCost, conv_flops

        if len(input_shape) != 2 + self.rank:
            raise ShapeError(f"conv{self.rank}d cost: input {input_shape} is not [batch, ch, {self.rank} spatial axes]")
        positions = input_shape[0]
        for extent in input_shape[2:]:
            positions *= self.output_extent(extent)
        params = self.weight.size + self.bias.size
        flops = conv_flops(positions, self.out_ch, self.in_ch, self.kernel ** self.rank)
        return [LayerCost(name or f"conv{self.rank}d", "conv", params, flops)]


class LayerNorm(Module):
    EPS = 1e-5  # added to each row's variance

    def __init__(self, width: int):
        self.width = int(width)
        self.gain = Tensor(np.ones(self.width), requires_grad=True)
        self.bias = Tensor(np.zeros(self.width), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, eps=self.EPS)


def clip_grad_norm(params: list[Tensor], max_norm: float, names: list[str] | None = None) -> float:
    """Scale all gradients so the global norm is at most ``max_norm``.

    Returns the pre-clip norm; a parameter without a gradient adds nothing to it.
    A norm that is not finite raises ``NumericError`` before any gradient is scaled,
    naming the first non-finite gradient (by ``names``, else by position) or the overflow.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    if not np.isfinite(total):
        bad = [names[i] if names else i for i, p in enumerate(params)
               if p.grad is not None and not np.isfinite(p.grad).all()]
        raise NumericError(f"the gradient of parameter {bad[0]} is not finite" if bad else
                           "the squared gradient norm overflowed, though every gradient is finite")
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


class Adam:
    """Adam with decoupled weight decay, keyed by parameter name.

    Decay is applied directly to the weights before the moment update, so a
    step with all-zero gradients moves parameters by the decay term alone.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self) -> None:
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, named_params: list[tuple[str, Tensor]], lr: float, weight_decay: float = 0.0) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name, p in named_params:
            if weight_decay:
                p.data -= lr * weight_decay * p.data
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)


def optimize(model: Module, loss_of: Callable[[], Tensor], optimizer: Adam,
             lr: float, weight_decay: float, clip: float) -> float:
    """One optimization step on the loss ``loss_of()`` records; returns its value
    from before the update.

    A non-finite loss, or gradient norm (``clip_grad_norm``), raises ``NumericError``
    naming the first op, or parameter, that went non-finite, before any parameter or
    optimizer state moves; the op is found by running ``loss_of`` once more under
    ``tensor.first_nonfinite``'s probe, since the tape keeps no outputs. A parameter
    the update leaves non-finite raises ``NumericError`` naming the first such
    parameter; that check runs after the step, so by then the parameters and the
    optimizer state have moved.
    numpy's floating-point warnings are silenced throughout, so a value that
    overflows surfaces only as that named error.
    """
    named = model.named_parameters()
    for _, p in named:
        p.grad = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with Tape() as tape:
            loss = loss_of()
            value = loss.item()
            if not np.isfinite(value):
                tape.nodes.clear()  # drop the graph before the forward runs again
                del loss
                culprit = T.first_nonfinite(loss_of) or "loss"
                raise NumericError(f"non-finite training loss (first bad op: {culprit})")
            tape.backward(loss)
        clip_grad_norm([p for _, p in named], clip, [name for name, _ in named])
        optimizer.step(named, lr, weight_decay)
    for name, p in named:
        if not np.isfinite(p.data).all():
            raise NumericError(f"parameter {name} is non-finite after the update")
    return value
