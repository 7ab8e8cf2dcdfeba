"""The three benchmark workloads.

Each workload builds its inputs from the seed in set-up, then serves timed
items in episodes. An episode starts from the same state every time (the
initial weights for training, the loaded weights for evaluation) and runs a
fixed item list, so its quality figure must come out bitwise equal on every
repeat; the runner checks that. The program only ever sees the generated
phantoms.

The checks compare the program with references written here in plain numpy
(convolutions forward and backward, the classifier's loss) and hold each
quality figure to a floor, so a change that computes different numbers fails
them even when it does so the same way every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metacross import classifier, configfile, harness, metadata, nn, phantoms, segmentation
from metacross import tensor as T
from metacross.tensor import Tape, Tensor

WEIGHTS = Path(__file__).resolve().parent / "weights" / "seg_default_seed0.ckpt"
N_SCENARIOS = 15
RTOL = 1e-9  # reference checks: max |got - want| over max |want|
# seg_eval dice_mean floor, far under the lowest of 30 seeds (0.71, baseline.json
# "quality"); the untrained model scores 0.013
DICE_FLOOR = 0.5


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


class NonFinite(ArithmeticError):
    pass


def _finite(value: np.ndarray | float, what: str) -> None:
    if not np.all(np.isfinite(value)):
        raise NonFinite(f"{what} is not finite")


def _rel_err(got: np.ndarray | None, want: np.ndarray) -> float:
    if got is None or np.shape(got) != np.shape(want):
        return float("inf")
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


def _window_index(out_spatial: tuple[int, ...], kernel: tuple[int, ...], stride: int) -> tuple:
    """Index that gathers every window of a padded input as [batch, ch, *out, *kernel]."""
    nd = len(kernel)
    idx = []
    for a, (o, k) in enumerate(zip(out_spatial, kernel)):
        shape = [1] * (2 * nd)
        shape[a], shape[nd + a] = o, k
        idx.append((stride * np.arange(o)[:, None] + np.arange(k)).reshape(shape))
    return (slice(None), slice(None)) + tuple(idx)


def conv_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int,
                   g: np.ndarray | None = None):
    """Cross-correlation by gathering all windows and contracting once.

    Returns the output; with ``g`` also (dx, dw, db), the gradients of
    ``sum(out * g)``.
    """
    nd = w.ndim - 2
    xp = np.pad(x, [(0, 0), (0, 0)] + [(padding, padding)] * nd)
    kernel = w.shape[2:]
    out_spatial = tuple((e - k) // stride + 1 for e, k in zip(xp.shape[2:], kernel))
    idx = _window_index(out_spatial, kernel, stride)
    win = xp[idx]
    sp, kn = list(range(2, 2 + nd)), list(range(2 + nd, 2 + 2 * nd))
    out = np.moveaxis(np.tensordot(win, w, axes=([1] + kn, [1] + sp)), -1, 1) + b.reshape((1, -1) + (1,) * nd)
    if g is None:
        return out
    dw = np.tensordot(g, win, axes=([0] + sp, [0] + sp))
    gxp = np.zeros_like(xp)
    np.add.at(gxp, idx, np.moveaxis(np.tensordot(g, w, axes=([1], [0])), 1 + nd, 1))
    crop = (slice(None), slice(None)) + tuple(slice(padding, padding + e) for e in x.shape[2:])
    return out, gxp[crop], dw, g.sum(axis=(0, *sp))


def conv_check(kind: str, modules, seed: int) -> Check:
    """``tensor.conv2d``/``conv3d`` forward and all three gradients against
    :func:`conv_reference`, on every conv geometry the model uses."""
    op, nd = getattr(T, kind), int(kind[-2])
    extent = 6 if nd == 3 else 8
    rng = np.random.default_rng(seed)
    geometries = sorted({(m.in_ch, m.out_ch, m.kernel, m.stride, m.padding) for m in modules})
    worst = 0.0
    for cin, cout, k, stride, padding in geometries:
        x = Tensor(rng.standard_normal((2, cin) + (extent,) * nd), requires_grad=True)
        w = Tensor(rng.standard_normal((cout, cin) + (k,) * nd), requires_grad=True)
        b = Tensor(rng.standard_normal(cout), requires_grad=True)
        with Tape() as tape:
            out = op(x, w, b, stride=stride, padding=padding)
            g = rng.standard_normal(out.shape)
            tape.backward(T.sum_(T.mul(out, Tensor(g))))
        want = conv_reference(x.data, w.data, b.data, stride, padding, g)
        worst = max(worst, *(_rel_err(got, ref) for got, ref in zip((out.data, x.grad, w.grad, b.grad), want)))
    return Check(f"{kind}_matches_reference", worst <= RTOL,
                 f"{len(geometries)} geometries of the model, output and dx/dw/db, "
                 f"max relative error {worst:.2g} (limit {RTOL:g})")


def _conv_rows(model: segmentation.SegModel) -> dict[str, object]:
    """The conv modules of a SegModel under their ``cost_rows`` names."""
    rows = {}
    for m, stem in enumerate(model.stems):
        for j, conv in enumerate(stem):
            rows[f"seg.stem{m}.{j}"] = conv
    for i, conv in enumerate(model.decoder):
        rows[f"seg.decoder{i}"] = conv
    for i, conv in enumerate(model.aux_heads):
        rows[f"seg.aux{i}"] = conv
    rows["seg.head"] = model.head
    return rows


def _seg_flops(model: segmentation.SegModel, pattern) -> int:
    """Analytic forward FLOPs of one volume; gated stems of missing modalities do not run."""
    skipped = tuple(f"seg.stem{m}." for m, ok in enumerate(pattern) if not ok)
    return sum(row.flops for row in model.cost_rows() if not row.name.startswith(skipped))


class _KeepLogits(segmentation.SegModel):
    """SegModel that keeps its last logits, so the runner can check them."""

    last_logits: Tensor | None = None

    def forward(self, batch):
        logits, aux = super().forward(batch)
        self.last_logits = logits
        return logits, aux


def seg_checks(model: segmentation.SegModel, sample: segmentation.SegBatch, seed: int) -> list[Check]:
    """Isolation and exact-zero masked weights for one sample missing a modality."""
    missing = seed % metadata.N_MODALITIES
    pattern = tuple(i != missing for i in range(metadata.N_MODALITIES))
    batch = phantoms.apply_availability(sample, pattern)

    weights = []
    softmax = T.masked_softmax_rows

    def capture(scores, mask):
        out = softmax(scores, mask)
        weights.append(out.data.copy())
        return out

    T.masked_softmax_rows = capture
    try:
        ref = model.forward(batch)[0].data.copy()
    finally:
        T.masked_softmax_rows = softmax
    column = np.concatenate([w[:, missing] for w in weights]) if weights else np.ones(1)
    zero = bool(weights) and bool(np.all(column == 0.0)) and not bool(np.signbit(column).any())

    rng = np.random.default_rng(seed)
    vols = batch.volumes.data.copy()
    vols[missing] = rng.normal(0.0, 5.0, vols[missing].shape)
    perturbed = segmentation.SegBatch(Tensor(vols), batch.mask, batch.target)
    table = model.meta_encoder.table
    saved = table.data.copy()
    table.data[missing] += rng.normal(0.0, 5.0, table.data.shape[1])
    try:
        out = model.forward(perturbed)[0].data
    finally:
        table.data = saved
    same = ref.shape == out.shape and np.array_equal(ref.view(np.int64), out.view(np.int64))
    name = metadata.MODALITY_NAMES[missing]
    return [
        Check("masked_weights_exact_zero", zero,
              f"{len(weights)} attention map(s), {name} column max {float(np.max(np.abs(column))):.3g}"),
        Check("missing_modality_isolation", same,
              f"{name} channel and dictionary row perturbed; logits bitwise {'equal' if same else 'DIFFERENT'}"),
    ]


class _Seg:
    """What both segmentation workloads share: conv rows, FLOPs and checks."""

    def conv_modules(self):
        return _conv_rows(self.model)

    def flops_per_item(self) -> float:
        return float(np.mean([_seg_flops(self.model, p) for _, p in self.plan]))

    def checks(self) -> list[Check]:
        return seg_checks(self.model, self.phantoms[0], self.seed) + [
            conv_check("conv3d", self.conv_modules().values(), self.seed)]


class SegTrain(_Seg):
    """One ``segmentation.train_step`` per item on a 4x32^3 phantom."""

    name = "seg_train"
    quality_name = "loss_final"
    EPISODE = 32  # steps from the initial weights before they are restored
    TAIL = 8      # loss_final averages the last TAIL losses of an episode

    def __init__(self, seed: int):
        self.seed = seed
        self.values = configfile.load_config(None, "seg", overrides={"seed": seed})
        data_seed, model_seed, step_seed = harness._seeds(seed, 3)
        spec = harness._phantom_spec(self.values, self.values["n_train"], data_seed)
        self.phantoms = phantoms.generate_seg_phantoms(spec)
        self.model = segmentation.SegModel(harness.seg_config_from_values(self.values),
                                           rng=np.random.default_rng(model_seed))
        self.initial = [p.data.copy() for p in self.model.parameters()]
        # draws follow harness.train_segmentation: phantom, then pattern with
        # FULL_PATTERN_BIAS extra weight on the complete set
        patterns = harness.enumerate_scenarios()
        rng = np.random.default_rng(step_seed)
        self.plan = []
        for _ in range(self.EPISODE):
            sample = int(rng.integers(len(self.phantoms)))
            if rng.random() < harness.FULL_PATTERN_BIAS:
                pattern = patterns[-1]
            else:
                pattern = patterns[int(rng.integers(len(patterns)))]
            self.plan.append((sample, pattern))
        self.losses: list[float] = []

    def start_episode(self) -> None:
        for p, init in zip(self.model.parameters(), self.initial):
            p.data = init.copy()
            p.grad = None
        self.optimizer = nn.Adam()
        self.losses = []

    def item(self, k: int) -> None:
        sample, pattern = self.plan[k]
        batch = phantoms.apply_availability(self.phantoms[sample], pattern)
        v = self.values
        loss = segmentation.train_step(self.model, batch, self.optimizer, lr=v["lr"],
                                       weight_decay=v["weight_decay"], clip=v["clip"],
                                       epoch=k, total_epochs=v["steps"])
        _finite(loss, "training loss")
        self.losses.append(loss)

    def quality(self) -> dict[str, float]:
        return {"loss_final": float(np.mean(self.losses[-self.TAIL:])),
                "loss_first": float(np.mean(self.losses[:self.TAIL]))}

    @staticmethod
    def quality_checks(quality: dict[str, float]) -> list[Check]:
        ratio = quality["loss_final"] / quality["loss_first"]
        return [Check("training_lowers_loss", ratio < 1.0,
                      f"loss_final / loss_first = {ratio:.4f} over an episode (must be below 1)")]


class SegEval(_Seg):
    """One ``predict_labels`` plus ``dice_score`` per item, trained weights, no tape."""

    name = "seg_eval"
    quality_name = "dice_mean"
    PHANTOMS = 4  # eval volumes; an episode scores each under all 15 scenarios

    def __init__(self, seed: int):
        self.seed = seed
        values = configfile.load_config(None, "seg", overrides={"seed": seed})
        eval_seed = harness._seeds(seed + 1, 1)[0]
        spec = harness._phantom_spec(values, self.PHANTOMS, eval_seed)
        self.phantoms = phantoms.generate_seg_phantoms(spec)
        self.model = _KeepLogits(harness.seg_config_from_values(values))
        segmentation.load_checkpoint(self.model, WEIGHTS)
        scenarios = harness.enumerate_scenarios()
        self.plan = [(k // N_SCENARIOS, scenarios[k % N_SCENARIOS])
                     for k in range(self.PHANTOMS * N_SCENARIOS)]
        self.scores: list[float] = []

    def start_episode(self) -> None:
        self.scores = []

    def item(self, k: int) -> None:
        sample, pattern = self.plan[k]
        batch = phantoms.apply_availability(self.phantoms[sample], pattern)
        pred = segmentation.predict_labels(self.model, batch)
        score = segmentation.dice_score(pred, batch.target, harness.LESION_CLASS)
        _finite(self.model.last_logits.data, "logits")
        self.scores.append(score)

    def quality(self) -> dict[str, float]:
        return {"dice_mean": float(np.mean(self.scores))}

    @staticmethod
    def quality_checks(quality: dict[str, float]) -> list[Check]:
        dice = quality["dice_mean"]
        return [Check("dice_mean_floor", dice >= DICE_FLOOR,
                      f"dice_mean {dice:.6f} over 15 scenarios x 4 phantoms (at least {DICE_FLOOR:g})")]


class ClsProbe:
    """FiLM-classifier training batches, then permutation-probe batches of 8 slices."""

    name = "cls_probe"
    quality_name = "cls_accuracy"
    TRAIN_STEPS = 300  # the cls config default
    TRIALS = 4  # shuffled-metadata passes over the eval slices after the true one

    def __init__(self, seed: int):
        self.seed = seed
        self.values = v = configfile.load_config(None, "cls", overrides={"seed": seed})
        data_seed, eval_seed, model_seed, step_seed = harness._seeds(seed, 4)
        self.train = phantoms.generate_cls_phantoms(harness._cls_phantom_spec(v, v["n_train"], data_seed),
                                                    v["slices_per_volume"])
        self.eval = phantoms.generate_cls_phantoms(harness._cls_phantom_spec(v, v["n_eval"], eval_seed),
                                                   v["slices_per_volume"])
        self.model = classifier.FilmClassifier(harness.classifier_config_from_values(v),
                                               rng=np.random.default_rng(model_seed))
        self.named = self.model.named_parameters()
        self.initial = [p.data.copy() for _, p in self.named]
        rng = np.random.default_rng(step_seed)
        self.batches = [[self.train[int(i)] for i in rng.integers(len(self.train), size=v["batch"])]
                        for _ in range(self.TRAIN_STEPS)]
        size = v["batch"]
        chunks = [list(range(i, min(i + size, len(self.eval)))) for i in range(0, len(self.eval), size)]
        probe_rng = np.random.default_rng(harness._seeds(seed + 7, 1)[0])
        pairs = [(s.sequence, s.plane) for s in self.eval]
        # trial 0 carries the true metadata, the others a shuffled copy as in permutation_probe
        self.metadata = [pairs] + [[pairs[j] for j in probe_rng.permutation(len(pairs))]
                                   for _ in range(self.TRIALS)]
        self.plan = [("train", i) for i in range(self.TRAIN_STEPS)]
        self.plan += [("eval", (t, c)) for t in range(self.TRIALS + 1) for c in chunks]

    def conv_modules(self):
        return {}

    def flops_per_item(self) -> float:
        shape = (self.values["batch"], 1, self.values["extent"], self.values["extent"])
        return float(sum(row.flops for row in self.model.cost_rows(shape)))

    def start_episode(self) -> None:
        for (_, p), init in zip(self.named, self.initial):
            p.data = init.copy()
            p.grad = None
        self.optimizer = nn.Adam()
        self.correct = [0] * len(self.metadata)
        self.seen = [0] * len(self.metadata)

    def item(self, k: int) -> None:
        kind, arg = self.plan[k]
        if kind == "train":
            v = self.values
            self.model.zero_grad()
            with Tape() as tape:
                loss = harness._cls_loss(self.model, self.batches[arg])
                value = loss.item()
                _finite(value, "training loss")
                tape.backward(loss)
            nn.clip_grad_norm([p for _, p in self.named], v["clip"])
            self.optimizer.step(self.named, v["lr"], v["weight_decay"])
            return
        trial, chunk = arg
        for i in chunk:
            s = self.eval[i]
            ctx = self.model.context(*self.metadata[trial][i])
            logits = self.model.forward(Tensor(s.image[None]), ctx)
            _finite(logits.data, "logits")
            self.correct[trial] += int(np.argmax(logits.data[0]) == s.label)
            self.seen[trial] += 1

    def quality(self) -> dict[str, float]:
        acc = [c / n for c, n in zip(self.correct, self.seen) if n]
        out = {"cls_accuracy": acc[0] if acc else 0.0}
        if len(acc) > 1:
            out["shuffled_accuracy"] = float(np.mean(acc[1:]))
        return out

    def checks(self) -> list[Check]:
        return [conv_check("conv2d", self.model.stages, self.seed), self.loss_check(self.batches[0])]

    @staticmethod
    def quality_checks(quality: dict[str, float]) -> list[Check]:
        return []  # accuracy after 300 steps varies too much by seed for a floor

    def reference_loss(self, batch) -> float:
        """Mean cross entropy from a plain numpy forward of every slice on its own."""
        m = self.model
        total = 0.0
        for s in batch:
            x = s.image[None]
            context = np.concatenate([m.embeddings.sequence_table.data[s.sequence],
                                      m.embeddings.plane_table.data[s.plane]])
            for i, conv in enumerate(m.stages):
                x = np.maximum(conv_reference(x, conv.weight.data, conv.bias.data, conv.stride, conv.padding), 0.0)
                if i in m.cfg.film_stages:
                    gen = m.film[str(i)]
                    h = np.maximum(context @ gen.hidden.weight.data + gen.hidden.bias.data, 0.0)
                    both = h @ gen.head.weight.data + gen.head.bias.data
                    gamma, beta = both[:gen.channels, None, None], both[gen.channels:, None, None]
                    x = x + x * gamma + beta
            logits = x.mean(axis=(2, 3))[0] @ m.head.weight.data + m.head.bias.data
            top = logits.max()
            total -= logits[s.label] - top - np.log(np.exp(logits - top).sum())
        return total / len(batch)

    def loss_check(self, batch) -> Check:
        """``harness._cls_loss``, which groups the batch by context, against :meth:`reference_loss`."""
        got, want = harness._cls_loss(self.model, batch).item(), self.reference_loss(batch)
        err = abs(got - want) / abs(want)
        return Check("cls_loss_matches_reference", bool(err <= RTOL),
                     f"mixed-metadata batch of {len(batch)}: loss {got:.12g}, reference {want:.12g}, "
                     f"relative error {err:.2g} (limit {RTOL:g})")

WORKLOADS = {w.name: w for w in (SegTrain, SegEval, ClsProbe)}
