"""Span tracing of the package's public callables, installed from outside.

A Tracer replaces the functions and methods listed in SPANS with timing
wrappers for the lifetime of a `with` block and puts the originals back
when the block ends. Nothing in the package is edited: the spans sit at
the boundary where one layer calls into another.

Each span records its name, start, end, the span that was open when it
started (its cause) and the id of the workload operation it belongs to.
A layer's self time is its span's duration minus the time covered by
the spans it opened; its self tape ops are counted the same way, from
the length of the tape that was active when it opened.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

from sparsevla.blocks import TransformerLayer
from sparsevla.tensor import Tape

# (module, attribute path, span name). Several callables may share a
# span name; their times are summed.
SPANS = [
    ("sparsevla.encoders", "SemanticEncoder.__call__", "encoders.semantic"),
    ("sparsevla.encoders", "GeometricEncoder.__call__", "encoders.geometric"),
    ("sparsevla.encoders", "Spatial3DEncoder.__call__", "encoders.spatial3d"),
    ("sparsevla.aligner", "CVAligner.align_views", "aligner.align_views"),
    ("sparsevla.fuser", "COFuser.run", "fuser.run"),
    ("sparsevla.thinker", "CSThinker.sc_forward", "thinker.sc_forward"),
    ("sparsevla.thinker", "CSThinker.decode_dynamic", "thinker.aux_decoders"),
    ("sparsevla.thinker", "CSThinker.decode_depth", "thinker.aux_decoders"),
    ("sparsevla.thinker", "CSThinker.decode_action", "thinker.action_head"),
    ("sparsevla.model", "VLAModel.compute_losses", "model.losses"),
    ("sparsevla.model", "VLAModel.forward", "model.forward"),
    ("sparsevla.model", "VLAModel.encode", "model.encode"),
    ("sparsevla.model", "VLAModel.spatial_features_view0", "model.next_features"),
    ("sparsevla.trainer", "train", "trainer.loop"),
    ("sparsevla.trainer", "evaluate_closed_loop", "trainer.loop"),
    ("sparsevla.trainer", "assemble_batch", "trainer.assemble_batch"),
    ("sparsevla.trainer", "collect_samples", "trainer.collect_samples"),
    ("sparsevla.trainer", "backward", "tensor.backward"),
    ("sparsevla.trainer", "Adam.step", "trainer.adam"),
    # observe is imported into both modules; each caller looks up its own
    ("sparsevla.world", "observe", "world.observe"),
    ("sparsevla.trainer", "observe", "world.observe"),
    ("sparsevla.world", "run_expert_episode", "world.run_expert_episode"),
    ("sparsevla.world", "generate_dataset", "world.generate_dataset"),
    ("sparsevla.world", "load_dataset", "world.load_dataset"),
]


def resolve(module: str, path: str):
    """(owner object, attribute name) for 'Class.method' or 'function'."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def op_macs(op) -> int:
    """Multiply-accumulates of one recorded tape op; 0 unless a matmul.

    A matmul output element is one dot product over the inner dimension
    of its first operand.
    """
    out, inputs, bwd = op
    if getattr(bwd, "__qualname__", "").split(".")[0] != "matmul":
        return 0
    return int(out.data.size) * int(inputs[0].shape[-1])


def tape_macs(ops) -> int:
    return sum(op_macs(op) for op in ops)


class Patches:
    """Attribute replacements undone in reverse order on close."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value):
        orig = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append((owner, attr, orig))
        return orig

    def close(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _Frame:
    __slots__ = ("name", "sid", "t0", "child_s", "tape", "ops0", "child_ops")

    def __init__(self, name, sid, t0, tape):
        self.name, self.sid, self.t0, self.tape = name, sid, t0, tape
        self.ops0 = len(tape.ops) if tape is not None else 0
        self.child_s = 0.0
        self.child_ops = 0


class Tracer(Patches):
    """Collects spans, per-name self times and tape-op counts."""

    def __init__(self):
        super().__init__()
        self.op = 0                # id of the current workload operation
        self.spans = []            # [id, parent id, op, name, start s, end s]
        self.stats = {}            # name -> [self s, calls, self tape ops]
        self.nested = {}           # (parent name, name) -> inclusive s
        self.counts = {}           # named counters and probe totals
        self.labels = {}           # id(TransformerLayer) -> probe label
        self._stack: list[_Frame] = []
        self._tapes = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1].sid if self._stack else -1
        tape = self._tapes[-1] if self._tapes else None
        t0 = time.perf_counter()
        self.spans.append([sid, parent, self.op, name, t0, None])
        self._stack.append(_Frame(name, sid, t0, tape))

    def _close(self):
        end = time.perf_counter()
        fr = self._stack.pop()
        self.spans[fr.sid][5] = end
        dur = end - fr.t0
        ops = len(fr.tape.ops) - fr.ops0 if fr.tape is not None else 0
        st = self.stats.setdefault(fr.name, [0.0, 0, 0])
        st[0] += dur - fr.child_s
        st[1] += 1
        st[2] += ops - fr.child_ops
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += dur
            if parent.tape is fr.tape:
                parent.child_ops += ops
            key = (parent.name, fr.name)
            self.nested[key] = self.nested.get(key, 0.0) + dur

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, so its time is no layer's self time."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- installation ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None):
        """Time every call of owner.attr as a span called `name`.

        `before(args, kwargs)` runs ahead of the span, so counting work
        it does is not charged to the layer.
        """
        orig = vars(owner)[attr]
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if before is not None:
                t0 = time.perf_counter()
                before(args, kwargs)
                tracer.add("trace.count_s", time.perf_counter() - t0)
            tracer._open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close()

        self.set(owner, attr, traced)

    def probe_blocks(self):
        """Inclusive time of the TransformerLayer calls named with label_model.

        These sit inside layer spans and stay out of the span tree. For
        'thinker.sc_layers' the matmul MACs recorded on the active tape
        during the call are added to 'thinker.sc_layers.macs'.
        """
        orig = vars(TransformerLayer)["__call__"]
        tracer, labels = self, self.labels

        @functools.wraps(orig)
        def probed(layer, *args, **kwargs):
            label = labels.get(id(layer))
            if label is None:
                return orig(layer, *args, **kwargs)
            tape = tracer._tapes[-1] if tracer._tapes else None
            n0 = len(tape.ops) if tape is not None else 0
            t0 = time.perf_counter()
            out = orig(layer, *args, **kwargs)
            t1 = time.perf_counter()
            tracer.add(label + ".s", t1 - t0)
            if label == "thinker.sc_layers" and tape is not None:
                tracer.add(label + ".macs", tape_macs(tape.ops[n0:]))
                tracer.add("trace.count_s", time.perf_counter() - t1)
            return out

        self.set(TransformerLayer, "__call__", probed)
        return self

    def follow_tapes(self):
        """Track the active Tape, so spans and probes can count its ops."""
        tracer = self
        enter, exit_ = vars(Tape)["__enter__"], vars(Tape)["__exit__"]

        def tape_enter(tape):
            tracer._tapes.append(tape)
            return enter(tape)

        def tape_exit(tape, *exc):
            tracer._tapes.pop()
            return exit_(tape, *exc)

        self.set(Tape, "__enter__", tape_enter)
        self.set(Tape, "__exit__", tape_exit)
        return self

    def label_model(self, model):
        """Name the blocks of `model` that the TransformerLayer probe times."""
        self.labels[id(model.geometric.layers[-1])] = "encoders.geometric_last_layer"
        for layer in model.thinker.sc_layers:
            self.labels[id(layer)] = "thinker.sc_layers"
        return self

    def install(self):
        """Wrap every callable in SPANS, follow the active Tape and probe
        the TransformerLayer instances named with label_model."""
        tracer = self
        self.follow_tapes().probe_blocks()

        def count_tape(args, kwargs):
            ops = args[1].ops
            tracer.add("tensor.tape_ops", len(ops))
            tracer.add("tensor.matmul_macs", tape_macs(ops))

        for module, path, name in SPANS:
            owner, attr = resolve(module, path)
            self.wrap(owner, attr, name,
                      before=count_tape if name == "tensor.backward" else None)
        return self

    # -- summaries ---------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0.0, 0, 0))[0]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0.0, 0, 0))[1]

    def tape_ops(self, name: str) -> int:
        return self.stats.get(name, (0.0, 0, 0))[2]

    def span_cost_s(self, reps: int = 20000) -> float:
        """Extra wall time one traced call costs over a plain call."""

        class Box:
            def f(self):
                return None

        box = Box()
        t0 = time.perf_counter()
        for _ in range(reps):
            box.f()
        plain = time.perf_counter() - t0
        with Tracer() as calib:
            calib.wrap(Box, "f", "calibration")
            t0 = time.perf_counter()
            for _ in range(reps):
                box.f()
            traced = time.perf_counter() - t0
        return max(traced - plain, 0.0) / reps
