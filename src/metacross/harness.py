"""Experiment harness: deterministic training runs, sweeps, and checks.

All randomness flows from a single seed through named children, so a rerun
with the same config writes byte-identical artifacts. Wall-clock timings are
reported on the console only and never enter result files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, CrossAttentionBlock
from .classifier import (N_CLASSES, ClassifierConfig, ClsSample,
                         FilmClassifier, bootstrap_delta_interval, film_apply,
                         permutation_probe)
from .errors import ConfigError
from .metadata import (FilmGenerator, MetadataEmbeddings, MetadataEncoder,
                       MODALITY_NAMES, ModalityMask, N_MODALITIES)
from .nn import Adam, optimize
from .phantoms import (ModalityContrast, PhantomSpec, apply_availability,
                       generate_cls_phantoms, generate_seg_phantoms)
from .segmentation import (SegBatch, SegConfig, SegModel, combined_loss,
                           dice_score, load_checkpoint, predict_labels,
                           save_checkpoint, train_step)
from .tensor import Tensor, grad_check

LESION_CLASS = 1
FULL_PATTERN_BIAS = 0.25


def enumerate_scenarios() -> list[tuple[bool, bool, bool, bool]]:
    """All 15 non-empty availability patterns: singles, pairs, triples, full."""
    patterns = []
    for k in range(1, N_MODALITIES + 1):
        for combo in combinations(range(N_MODALITIES), k):
            patterns.append(tuple(i in combo for i in range(N_MODALITIES)))
    return patterns


@dataclass
class ScenarioResult:
    available: tuple[bool, bool, bool, bool]
    dice: float
    n_samples: int
    wall_time: float


def _seeds(master: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(master).spawn(n)]


def _phantom_spec(values: dict, n: int, seed: int) -> PhantomSpec:
    contrasts = {name: ModalityContrast(*(values[f"{name.lower()}_{f.name}"] for f in fields(ModalityContrast)))
                 for name in MODALITY_NAMES}
    return PhantomSpec(extent=values["extent"], n_samples=n,
                       radius_range=(values["radius_min"], values["radius_max"]),
                       contrasts=contrasts, seed=seed)


def attention_config_from_values(values: dict) -> AttentionConfig:
    """The bottleneck of a seg or complexity config; ``ffn_hidden = 0`` means the 4x default."""
    return AttentionConfig(embed_dim=values["embed_dim"], patch_size=values["patch_size"],
                           ffn_hidden=values["ffn_hidden"] or None, n_layers=values["n_layers"])


def seg_config_from_values(values: dict) -> SegConfig:
    """Every ``SegConfig`` field but the bottleneck is the seg config key of its name."""
    return SegConfig(attention=attention_config_from_values(values),
                     **{f.name: values[f.name] for f in fields(SegConfig) if f.name != "attention"})


def train_segmentation(values: dict) -> tuple[SegModel, list[float]]:
    """Train one shared model under random availability."""
    if values["checkpoint"]:  # only sweep reads one; training would ignore it
        raise ConfigError(f"config key 'checkpoint': train-seg reads no checkpoint, got {values['checkpoint']!r}")
    data_seed, model_seed, step_seed = _seeds(values["seed"], 3)
    cfg = seg_config_from_values(values)  # a geometry error is raised before the phantoms are made
    phantoms = generate_seg_phantoms(_phantom_spec(values, values["n_train"], data_seed))
    model = SegModel(cfg, rng=np.random.default_rng(model_seed))
    patterns = enumerate_scenarios()
    rng = np.random.default_rng(step_seed)
    optimizer = Adam()
    losses = []
    steps = values["steps"]
    for step in range(steps):
        sample = phantoms[int(rng.integers(len(phantoms)))]
        # Oversample the complete pattern: dropping is the augmentation, the
        # full set is the reference case and should not get just 1/15 weight.
        if rng.random() < FULL_PATTERN_BIAS:
            pattern = patterns[-1]
        else:
            pattern = patterns[int(rng.integers(len(patterns)))]
        batch = apply_availability(sample, pattern)
        loss = train_step(model, batch, optimizer, lr=values["lr"],
                          weight_decay=values["weight_decay"], clip=values["clip"],
                          epoch=step, total_epochs=steps)
        losses.append(loss)
    return model, losses


def evaluate_scenario(model: SegModel, phantoms: list[SegBatch], available) -> ScenarioResult:
    start = time.perf_counter()
    scores = []
    for sample in phantoms:
        batch = apply_availability(sample, available)
        pred = predict_labels(model, batch)
        scores.append(dice_score(pred, batch.target, LESION_CLASS))
    return ScenarioResult(tuple(available), float(np.mean(scores)), len(phantoms),
                          time.perf_counter() - start)


def run_sweep(values: dict) -> dict:
    """Train (or load), evaluate all 15 scenarios, and render artifacts."""
    eval_seed = _seeds(values["seed"] + 1, 1)[0]
    if values["checkpoint"]:
        model = SegModel(seg_config_from_values(values))
        load_checkpoint(model, values["checkpoint"])
        losses = []
    else:
        model, losses = train_segmentation(values)

    eval_phantoms = generate_seg_phantoms(_phantom_spec(values, values["n_eval"], eval_seed))
    results = [evaluate_scenario(model, eval_phantoms, p) for p in enumerate_scenarios()]
    average = float(np.mean([r.dice for r in results]))
    return {
        "model": model,
        "results": results,
        "average": average,
        "losses": losses,
        "csv": render_sweep_csv(results),
        "json": render_sweep_json(results, values["seed"]),
    }


def render_sweep_csv(results: list[ScenarioResult]) -> str:
    lines = [",".join(m.lower() for m in MODALITY_NAMES) + ",dice,n"]
    for r in results:
        flags = ",".join(str(int(a)) for a in r.available)
        lines.append(f"{flags},{r.dice:.6f},{r.n_samples}")
    average = float(np.mean([r.dice for r in results]))
    lines.append(f"avg,avg,avg,avg,{average:.6f},{results[0].n_samples}")
    return "\n".join(lines) + "\n"


def render_sweep_json(results: list[ScenarioResult], seed: int) -> str:
    payload = {
        "modality_order": list(MODALITY_NAMES),
        "scenarios": [
            {"available": {MODALITY_NAMES[i]: bool(a) for i, a in enumerate(r.available)},
             "dice": round(r.dice, 6), "n": r.n_samples}
            for r in results
        ],
        "average_dice": round(float(np.mean([r.dice for r in results])), 6),
        "seed": seed,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_loss_csv(losses: list[float]) -> str:
    lines = ["step,loss"]
    for i, v in enumerate(losses):
        lines.append(f"{i},{v:.8f}")
    return "\n".join(lines) + "\n"


def write_sweep_outputs(outdir: str | Path, sweep: dict) -> dict[str, Path]:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": out / "scenarios.csv",
        "json": out / "scenarios.json",
        "loss": out / "loss_curve.csv",
        "checkpoint": out / "checkpoint.ckpt",
    }
    paths["csv"].write_text(sweep["csv"])
    paths["json"].write_text(sweep["json"])
    paths["loss"].write_text(render_loss_csv(sweep["losses"]))
    save_checkpoint(sweep["model"], paths["checkpoint"])
    return paths


# ---------------------------------------------------------------------------
# 2D classifier training


def classifier_config_from_values(values: dict) -> ClassifierConfig:
    cfg = ClassifierConfig(stage_channels=values["stage_channels"], film_stages=values["film_stages"])
    if values["extent"] < cfg.min_extent:
        raise ConfigError(f"config keys 'extent', 'stage_channels': extent {values['extent']} is too small "
                          f"for {len(cfg.stage_channels)} halving stages (needs >= {cfg.min_extent})")
    return cfg


def _cls_phantom_spec(values: dict, n: int, seed: int) -> PhantomSpec:
    return PhantomSpec(extent=values["extent"], n_samples=n, seed=seed)


def _cls_seeds(values: dict) -> dict[str, int]:
    """The four seeds a classifier run spawns from its master seed, named in spawn order."""
    return dict(zip(("train_set", "eval_set", "model", "steps"), _seeds(values["seed"], 4)))


def _cls_loss(model: FilmClassifier, batch: list[ClsSample]) -> T.Tensor:
    """Mean cross entropy over a mixed-metadata batch, one forward with a per-sample context."""
    images = Tensor(np.stack([s.image for s in batch]))
    logits = model.forward(images, model.context([s.sequence for s in batch], [s.plane for s in batch]))
    onehot = np.zeros((len(batch), N_CLASSES))
    onehot[np.arange(len(batch)), [s.label for s in batch]] = 1.0
    return T.scale(T.sum_(T.mul(Tensor(onehot), T.log_softmax(logits, axis=1))), -1.0 / len(batch))


def train_classifier(values: dict) -> tuple[FilmClassifier, list[float]]:
    seeds = _cls_seeds(values)
    cfg = classifier_config_from_values(values)  # a geometry error is raised before the phantoms are made
    train_samples = generate_cls_phantoms(_cls_phantom_spec(values, values["n_train"], seeds["train_set"]),
                                          values["slices_per_volume"])
    model = FilmClassifier(cfg, rng=np.random.default_rng(seeds["model"]))
    rng = np.random.default_rng(seeds["steps"])
    optimizer = Adam()
    losses = []
    for _ in range(values["steps"]):
        idx = rng.integers(len(train_samples), size=values["batch"])
        batch = [train_samples[int(i)] for i in idx]
        losses.append(optimize(model, lambda: _cls_loss(model, batch), optimizer,
                               values["lr"], values["weight_decay"], values["clip"]))
    return model, losses


def run_probe(values: dict) -> dict:
    """Train the classifier, then measure the metadata-shuffling accuracy drop."""
    probe_seed = _seeds(values["seed"] + 7, 1)[0]
    model, losses = train_classifier(values)
    eval_samples = generate_cls_phantoms(_cls_phantom_spec(values, values["n_eval"], _cls_seeds(values)["eval_set"]),
                                         values["slices_per_volume"])
    probe = permutation_probe(model, eval_samples, values["trials"], probe_seed)
    lo, hi = bootstrap_delta_interval(probe["true_accuracy"], probe["shuffled_accuracies"],
                                      seed=probe_seed)
    return {
        "model": model,
        "losses": losses,
        "true_accuracy": probe["true_accuracy"],
        "mean_shuffled_accuracy": float(np.mean(probe["shuffled_accuracies"])),
        "delta": probe["delta"],
        "delta_ci_low": lo,
        "delta_ci_high": hi,
        "trials": values["trials"],
        "n_eval_samples": len(eval_samples),
    }


def render_probe_json(probe: dict) -> str:
    payload = {k: (round(v, 6) if isinstance(v, float) else v)
               for k, v in probe.items() if k not in ("model", "losses")}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# gradient-check suite (shared by the CLI and the acceptance tests)


def gradcheck_suite(seed: int) -> dict[str, float]:
    """Max relative finite-difference error for every differentiable piece."""
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    b = Tensor(rng.uniform(-2, 2, (4, 5)))
    x = Tensor(rng.uniform(-2, 2, (3, 4)))
    results["matmul"] = grad_check(lambda t: T.sum_(T.matmul(t, b)), x)

    patterns = enumerate_scenarios()
    pattern = patterns[int(rng.integers(len(patterns)))]
    mask = ModalityMask(pattern)
    v_const = Tensor(rng.uniform(-2, 2, (N_MODALITIES, 3)))
    scores = Tensor(rng.uniform(-2, 2, (6, N_MODALITIES)))
    results["masked_softmax"] = grad_check(
        lambda t: T.sum_(T.matmul(T.masked_softmax_rows(t, mask.additive), v_const)), scores)

    gain = Tensor(rng.uniform(0.5, 1.5, (5,)), requires_grad=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, (5,)), requires_grad=True)
    xn = Tensor(rng.uniform(-2, 2, (4, 5)))
    results["layer_norm"] = max(
        grad_check(lambda t: T.sum_(T.layer_norm(t, gain, bias)), xn),
        grad_check(lambda t: T.sum_(T.layer_norm(xn, t, bias)), gain),
    )

    w2 = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)))
    x2 = Tensor(rng.uniform(-2, 2, (1, 2, 6, 6)))
    results["conv2d"] = max(
        grad_check(lambda t: T.sum_(T.conv2d(t, w2, stride=2, padding=1)), x2),
        grad_check(lambda t: T.sum_(T.conv2d(x2, t, stride=2, padding=1)), w2),
    )

    w3 = Tensor(rng.uniform(-1, 1, (2, 2, 2, 2, 2)))
    x3 = Tensor(rng.uniform(-2, 2, (1, 2, 4, 4, 4)))
    # stride 1 (the decoder convs and 1x1 heads) under a random output weighting
    ws = Tensor(rng.uniform(-1, 1, (2, 2, 3, 3, 3)))
    w1 = Tensor(rng.uniform(-1, 1, (3, 2, 1, 1, 1)))
    xs = Tensor(rng.uniform(-2, 2, (1, 2, 3, 3, 3)))
    gs, g1 = Tensor(rng.uniform(-1, 1, (1, 2, 3, 3, 3))), Tensor(rng.uniform(-1, 1, (1, 3, 3, 3, 3)))
    # the decoder's fused nearest x2 upsample and 3x3x3 conv: its phases, then their interleave
    xu, gu = Tensor(rng.uniform(-2, 2, (1, 2, 2, 3, 2))), Tensor(rng.uniform(-1, 1, (1, 2, 4, 6, 4)))

    def up(t: Tensor, w: Tensor) -> Tensor:
        return T.interleave_phases(T.conv3d(t, w, padding=1, upsample_phases=True))

    results["conv3d"] = max(
        grad_check(lambda t: T.sum_(T.conv3d(t, w3, stride=2)), x3),
        grad_check(lambda t: T.sum_(T.conv3d(x3, t, stride=2)), w3),
        grad_check(lambda t: T.sum_(T.mul(T.conv3d(t, ws, padding=1), gs)), xs),
        grad_check(lambda t: T.sum_(T.mul(T.conv3d(xs, t, padding=1), gs)), ws),
        grad_check(lambda t: T.sum_(T.mul(T.conv3d(t, w1), g1)), xs),
        grad_check(lambda t: T.sum_(T.mul(T.conv3d(xs, t), g1)), w1),
        grad_check(lambda t: T.sum_(T.mul(up(t, ws), gu)), xu),
        grad_check(lambda t: T.sum_(T.mul(up(xu, t), gu)), ws),
    )

    emb = MetadataEmbeddings(rng=np.random.default_rng(int(rng.integers(2 ** 31))))
    gen = FilmGenerator(channels=3, rng=np.random.default_rng(int(rng.integers(2 ** 31))))
    xf = Tensor(rng.uniform(-2, 2, (2, 3, 4, 4)))
    ids = ([1, 3], [2, 0])  # two samples, two contexts

    def film_objective(_: Tensor) -> T.Tensor:
        # reads whatever grad_check wrote into the varied tensor's data
        return T.sum_(film_apply(xf, gen.params_for(emb.context(*ids))))

    results["film"] = max(
        grad_check(lambda t: T.sum_(film_apply(t, gen.params_for(emb.context(*ids)))), xf),
        grad_check(film_objective, emb.sequence_table),
        grad_check(film_objective, gen.head.weight),
    )

    att = AttentionConfig(embed_dim=4, patch_size=1)
    block = CrossAttentionBlock(att, rng=np.random.default_rng(int(rng.integers(2 ** 31))))
    enc = MetadataEncoder(4, 4, rng=np.random.default_rng(int(rng.integers(2 ** 31))))
    q8 = Tensor(rng.uniform(-2, 2, (8, 4)))
    bmask = ModalityMask(patterns[int(rng.integers(len(patterns)))])

    def block_objective(_: Tensor) -> T.Tensor:
        k, v = enc.tokens()
        return T.sum_(block(q8, k, v, bmask))

    results["attention_block"] = max(
        grad_check(block_objective, q8),
        grad_check(block_objective, enc.table),
    )

    cfg = SegConfig(extent=8, attention=AttentionConfig(embed_dim=4, patch_size=2),
                    encoder_channels=(4,), decoder_channels=(4, 4), deep_supervision=False)
    target = rng.integers(0, 2, size=(8, 8, 8))
    logits = Tensor(rng.uniform(-2, 2, (2, 8, 8, 8)))
    small = Tensor(rng.uniform(-2, 2, (2, 4, 4, 4)))
    # three classes: two can hide a wrong softmax Jacobian
    target3 = rng.integers(0, 3, size=(8, 8, 8))
    logits3 = Tensor(rng.uniform(-2, 2, (3, 8, 8, 8)))
    results["combined_loss"] = max(
        grad_check(lambda t: combined_loss(t, target, [small], epoch=1, total_epochs=2, cfg=cfg), logits),
        # the aux head at weight ds_decay = 0.4
        grad_check(lambda t: combined_loss(logits, target, [t], epoch=1, total_epochs=2, cfg=cfg), small),
        grad_check(lambda t: combined_loss(t, target3, [], cfg=cfg), logits3),
    )

    return results
