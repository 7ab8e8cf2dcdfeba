"""Outside-in span tracer for the metacross layers.

The tracer never edits the package: it swaps the public entry points of each
layer for thin wrappers while a run is traced, and puts the originals back
afterwards. Every wrapped call becomes a span (name, start, end, parent).
Backward rules handed to ``Tape.record`` are wrapped too; each rule span
remembers the span that was open when the rule was registered (its owner),
so backward time can be charged to the layer that recorded the op.

Spans are kept in memory as flat integer records and turned into per-layer
figures by :func:`summarize` after the run.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# record layout: sid, name id, parent sid, owner sid, start ns, end ns, item, tag id
FIELDS = 8
ITEM_SPAN = "harness.item"
TENSOR_KINDS = ("tensor.conv3d", "tensor.conv2d", "tensor.other")
# tensor ops other than convolutions; each becomes a ``tensor.other`` span tagged by op
OTHER_OPS = ("add", "sub", "mul", "div", "scale", "relu", "gelu", "exp", "log", "matmul",
             "sum_", "mean", "log_softmax", "masked_softmax_rows", "layer_norm", "reshape",
             "transpose", "concat", "narrow", "take_rows", "upsample3d_nearest")
# module-level layers reported inclusive of children, forward plus the backward
# rules their ops registered
INCLUSIVE = ("tensor.backward", "attention.tokenizer", "attention.block", "metadata.encoder", "metadata.film",
             "segmentation.loss", "classifier.forward", "classifier.film_apply")


class Patcher:
    """Swap wrappers in everywhere the package bound the originals, and back.

    The binding sites are found once, when a swap is declared, so ``apply``
    and ``restore`` are cheap enough to run around every traced item.
    """

    def __init__(self) -> None:
        self._swaps: list[tuple[object, str, object, object]] = []

    def function(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "metacross" and not mod_name.startswith("metacross."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._swaps.append((mod, attr, original, wrapper))

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._swaps.append((cls, name, original, make_wrapper(original)))

    def __bool__(self) -> bool:
        return bool(self._swaps)

    def apply(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder. ``item`` is the index of the timed item, -1 in set-up."""

    def __init__(self) -> None:
        self.records = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[tuple] = []
        self._tag_ids: dict[tuple, int] = {}
        self.stack: list[int] = []
        self.stack_names: list[int] = []
        self.ops_recorded = 0
        self.item = -1
        self._next = 0
        self._patcher = Patcher()
        self.weight_rows: dict[int, tuple[str, int]] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def tag_id(self, tag: tuple) -> int:
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return tid

    def call(self, nid: int, tag: int, owner: int, fn, args, kwargs=None):
        """Run ``fn`` inside a span; the hot path of every wrapper."""
        sid = self._next
        self._next = sid + 1
        stack = self.stack
        parent = stack[-1] if stack else -1
        stack.append(sid)
        self.stack_names.append(nid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.stack_names.pop()
            self.records.extend((sid, nid, parent, owner, start, end, self.item, tag))

    def run_item(self, index: int, fn, *args) -> None:
        """Run one timed item as a root span."""
        self.item = index
        try:
            self.call(self.name_id(ITEM_SPAN), -1, -1, fn, args)
        finally:
            self.item = -1

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, tag: int = -1):
        nid = self.name_id(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(nid, tag, -1, fn, args, kwargs)
            return wrapper
        return make

    def _wrap_conv3d(self, fn):
        """conv3d spans carry their ``cost_rows`` row and backward FLOP factor as a tag."""
        nid = self.name_id("tensor.conv3d")

        def conv3d(x, weight, *args, **kwargs):
            row, flops = self.weight_rows.get(id(weight), ("unmapped", 0))
            grads = 0
            if self._active_tape() is not None:
                grads = int(x.needs_grad) + int(weight.needs_grad)
            return self.call(nid, self.tag_id((row, flops, grads)), -1, fn, (x, weight) + args, kwargs)
        return conv3d

    def _wrap_record(self, original):
        tracer = self
        kinds = {tracer.name_id(k): tracer.name_id(f"{k}.bwd") for k in TENSOR_KINDS}
        fallback = kinds[tracer.name_id("tensor.other")]

        def record(tape, name, out, backward):
            tracer.ops_recorded += 1
            owner = tracer.stack[-1] if tracer.stack else -1
            nid = kinds.get(tracer.stack_names[-1] if tracer.stack_names else -1, fallback)

            def rule(g):
                tracer.call(nid, -1, owner, backward, (g,))

            return original(tape, name, out, rule)
        return record

    def install(self) -> None:
        """Put the wrappers in place; the first call declares them."""
        if not self._patcher:
            self._declare()
        self._patcher.apply()

    def _declare(self) -> None:
        from metacross import (attention, classifier, configfile, harness, metadata,
                               nn, phantoms, segmentation, tensor)

        self._active_tape = tensor.active_tape
        p, w = self._patcher, self._wrap
        p.function(tensor, "conv3d", self._wrap_conv3d)
        p.function(tensor, "conv2d", w("tensor.conv2d"))
        for op in OTHER_OPS:
            tag = self.tag_id((op, 0, 0))
            p.function(tensor, op, w("tensor.other", tag))
        p.method(tensor.Tape, "record", self._wrap_record)
        p.method(tensor.Tape, "backward", w("tensor.backward"))
        p.method(nn.Adam, "step", w("nn.adam"))
        p.function(nn, "clip_grad_norm", w("nn.clip"))
        p.method(attention.PatchTokenizer, "__call__", w("attention.tokenizer"))
        p.method(attention.CrossAttentionBlock, "__call__", w("attention.block"))
        p.method(metadata.MetadataEncoder, "tokens", w("metadata.encoder"))
        p.method(metadata.FilmGenerator, "params_for", w("metadata.film"))
        p.method(segmentation.SegModel, "forward", w("segmentation.forward"))
        p.function(segmentation, "train_step", w("segmentation.train_step"))
        p.function(segmentation, "combined_loss", w("segmentation.loss"))
        p.function(segmentation, "predict_labels", w("segmentation.predict"))
        p.function(segmentation, "dice_score", w("segmentation.dice"))
        p.function(segmentation, "load_checkpoint", w("segmentation.checkpoint_load"))
        p.function(phantoms, "generate_seg_phantoms", w("phantoms.generate"))
        p.function(phantoms, "generate_cls_phantoms", w("phantoms.generate"))
        p.function(phantoms, "apply_availability", w("phantoms.apply_availability"))
        p.function(configfile, "load_config", w("configfile.load"))
        p.method(classifier.FilmClassifier, "forward", w("classifier.forward"))
        p.function(classifier, "film_apply", w("classifier.film_apply"))
        p.function(harness, "_cls_loss", w("harness.cls_loss"))

    def uninstall(self) -> None:
        self._patcher.restore()

    def map_conv_rows(self, model, conv_modules: dict[str, object]) -> None:
        """Key each conv's weight to its ``cost_rows`` row name and forward FLOPs."""
        if not conv_modules:
            return
        flops = {row.name: row.flops for row in model.cost_rows()}
        for row, module in conv_modules.items():
            self.weight_rows[id(module.weight)] = (row, flops[row])

    def table(self) -> np.ndarray:
        return np.frombuffer(self.records, dtype=np.int64).reshape(-1, FIELDS).copy()


def self_times(parent_pos: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parent_pos`` holds the row of each span's parent, -1 for a root.
    """
    child = np.zeros_like(dur)
    has = parent_pos >= 0
    np.add.at(child, parent_pos[has], dur[has])
    return dur - child


def within(parent_pos: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """True for every span that is ``hit`` or has a ``hit`` ancestor."""
    inside = hit.copy()
    up = parent_pos.copy()
    while True:
        has = up >= 0
        if not has.any():
            return inside
        inside[has] |= hit[up[has]]
        up = np.where(has, parent_pos[np.maximum(up, 0)], -1)


def summarize(tracer: Tracer, n_items: int) -> dict:
    """Per-layer figures: self times, inclusive fwd+bwd times, counts, per item."""
    t = tracer.table()
    names = tracer.names
    sid, nid, parent, owner, start, end, item, tag = (t[:, i] for i in range(FIELDS))
    pos = np.full(int(sid.max()) + 1 if len(sid) else 0, -1, dtype=np.int64)
    pos[sid] = np.arange(len(sid))
    parent_pos = np.where(parent >= 0, pos[np.maximum(parent, 0)], -1)
    owner_pos = np.where(owner >= 0, pos[np.maximum(owner, 0)], -1)
    dur = (end - start).astype(np.float64) / 1e6  # ms
    self_ms = self_times(parent_pos, dur)
    timed = item >= 0
    per = max(n_items, 1)

    def nid_of(name: str) -> int:
        return names.index(name) if name in names else -2

    out: dict = {"self_ms": {}, "inclusive_ms": {}, "setup_ms": {}, "conv3d_rows": {}, "other_ops": {},
                 "counts": {"tensor.ops_recorded": tracer.ops_recorded / per}}
    for i, name in enumerate(names):
        sel = nid == i
        if not sel.any():
            continue
        if timed[sel].any():
            out["self_ms"][name] = float(self_ms[sel & timed].sum()) / per
        if (~timed[sel]).any():
            out["setup_ms"][name] = float(dur[sel & ~timed].sum())

    rules = owner_pos >= 0
    for name in INCLUSIVE:
        hit = nid == nid_of(name)
        inside = within(parent_pos, hit)
        outermost = hit & ~np.where(parent_pos >= 0, inside[np.maximum(parent_pos, 0)], False)
        fwd = dur[outermost & timed].sum()
        bwd = dur[rules & timed & np.where(rules, inside[np.maximum(owner_pos, 0)], False)].sum()
        out["inclusive_ms"][name] = float(fwd + bwd) / per

    items = nid == nid_of(ITEM_SPAN)
    out["item_ms"] = dur[items].tolist()
    # what the wrapped layers account for: the item minus its own self time
    out["item_attributed_ms"] = (dur[items] - self_ms[items]).tolist()
    out["counts"]["classifier.forward_calls"] = float((nid == nid_of("classifier.forward"))[timed].sum()) / per
    loss_spans = int((nid == nid_of("harness.cls_loss"))[timed].sum())
    in_loss = within(parent_pos, nid == nid_of("harness.cls_loss"))
    groups = int((in_loss & timed & (nid == nid_of("classifier.forward"))).sum())
    out["counts"]["harness.cls_loss_groups"] = groups / loss_spans if loss_spans else 0.0

    conv_fwd = timed & (nid == nid_of("tensor.conv3d"))
    conv_bwd = timed & rules & (nid == nid_of("tensor.conv3d.bwd"))
    fwd_flops = bwd_flops = 0
    stems = 0
    for row_idx in np.flatnonzero(conv_fwd):
        row, flops, grads = tracer.tags[tag[row_idx]]
        fwd_flops += flops
        bwd_flops += flops * grads
        stems += ".stem" in row
        entry = out["conv3d_rows"].setdefault(row, {"fwd_ms": 0.0, "bwd_ms": 0.0, "flops": 0})
        entry["fwd_ms"] += dur[row_idx] / per
        entry["flops"] += (flops * (1 + grads)) / per
    for row_idx in np.flatnonzero(conv_bwd):
        row = tracer.tags[tag[owner_pos[row_idx]]][0]
        out["conv3d_rows"].setdefault(row, {"fwd_ms": 0.0, "bwd_ms": 0.0, "flops": 0})["bwd_ms"] += dur[row_idx] / per
    other_fwd = timed & (nid == nid_of("tensor.other"))
    other_bwd = timed & rules & (nid == nid_of("tensor.other.bwd"))
    for sel, key, tags in ((other_fwd, "fwd_ms", tag), (other_bwd, "bwd_ms", tag[np.maximum(owner_pos, 0)])):
        for t_id in np.unique(tags[sel]):
            op = tracer.tags[t_id][0]
            entry = out["other_ops"].setdefault(op, {"fwd_ms": 0.0, "bwd_ms": 0.0})
            entry[key] = float(self_ms[sel & (tags == t_id)].sum()) / per
    out["counts"]["segmentation.stems_run"] = stems / per
    out["conv3d_flops_per_item"] = (fwd_flops + bwd_flops) / per
    return out
