"""Wrap the layers of ``seqshot`` for a traced run and turn the spans into
per-layer metrics.

The layers are the modules of ``src/seqshot``.  Every module's public
functions are wrapped as module attributes, plus the ``forward`` and
``backward`` of the ``nn`` layer classes.  A function's ``.s`` metric is its
inclusive time (the sum of its outermost calls); ``.self_s`` leaves out the
time of the traced calls it makes.  ``layer.<module>.self_s`` is the summed
self time of every span of that module.
"""

import inspect
import tracemalloc

from seqshot import (augment, cli, corpus, curation, detector, dsp, evaluate,
                     nn, pretrain)

LAYERS = ("corpus", "dsp", "nn", "pretrain", "curation", "augment",
          "detector", "evaluate", "cli")

TRAIN_SPANS = ("pretrain.train_weak", "pretrain.distill",
               "pretrain.train_strong")
CLI_COMMANDS = ("synth-corpus", "pretrain", "distill", "pseudolabel",
                "train-strong", "enroll", "detect", "evaluate")

MODULES = (corpus, dsp, nn, pretrain, curation, augment, detector, evaluate,
           cli)
NN_CLASSES = ("Linear", "Conv1d", "Conv2d", "ReLU", "MeanOverTime",
              "MeanOverFreq", "GlobalChannelPool")

PER_LAYER = (
    # name, unit
    ("dsp.logmel.s", "s"), ("dsp.logmel.frames", "count"),
    ("pretrain.logmel_frames_used_ratio", "ratio"),
    ("dsp.load_wav.s", "s"), ("dsp.load_wav.audio_s", "s"),
    ("dsp.load_wav.rss_growth_mib", "MiB"),
    ("dsp.augment_resample.s", "s"),
    ("nn.Conv2d.forward.s", "s"), ("nn.Conv2d.backward.s", "s"),
    ("nn.Conv2d.gflop", "GFLOP"),
    ("nn.Conv1d.forward.s", "s"), ("nn.Conv1d.backward.s", "s"),
    ("nn.Linear.forward.s", "s"), ("nn.Linear.backward.s", "s"),
    ("nn.adamw_step.s", "s"),
    ("nn.read_checkpoint.s", "s"), ("nn.write_checkpoint.s", "s"),
    ("pretrain.train_weak.s", "s"), ("pretrain.train_weak.self_s", "s"),
    ("pretrain.train_weak.steps", "count"), ("pretrain.distill.s", "s"),
    ("pretrain.pseudo_label.s", "s"), ("pretrain.train_strong.s", "s"),
    ("pretrain.train_strong.self_s", "s"),
    ("pretrain.embed_frames.s", "s"), ("pretrain.embed_frames.audio_s", "s"),
    ("pretrain.embed_pooled.s", "s"), ("pretrain.embed_pooled.calls", "count"),
    ("curation.curate.s", "s"), ("curation.fit_loudness.s", "s"),
    ("curation.match_across_shots.s", "s"),
    ("curation.align_to_exemplar.s", "s"),
    ("curation.shot_iou_ok_ratio", "ratio"),
    ("augment.build_train_set.s", "s"), ("augment.build_train_set.items", "count"),
    ("augment.time_shift_augment.s", "s"), ("augment.delta_augment.s", "s"),
    ("detector.train_detector.s", "s"), ("detector.detector_loss.s", "s"),
    ("detector.detector_loss.calls", "count"),
    ("detector.stream_scores.s", "s"), ("detector.stream_scores.windows", "count"),
    ("evaluate.run_episode.s", "s"),
    ("cli.enroll.s", "s"), ("cli.detect.s", "s"), ("cli.detect.calls", "count"),
    ("corpus.gen_pretrain_dataset.s", "s"), ("corpus.gen_episode.s", "s"),
) + tuple((f"layer.{m}.self_s", "s") for m in LAYERS) + (
    ("trace.round_s", "s"), ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


# -- counters -------------------------------------------------------------------

def _training(tracer):
    return any(n in TRAIN_SPANS for n in tracer.current())


def _count_logmel(tracer, args, kwargs, m):
    tracer.count("dsp.logmel.frames", m.shape[0])
    if _training(tracer):
        tracer.count("train.logmel_frames", m.shape[0])


def _count_load_wav(tracer, args, kwargs, w):
    tracer.count("dsp.load_wav.audio_s", w.duration_s)


def _count_adamw(tracer, args, kwargs, result):
    open_spans = tracer.current()
    if "pretrain.train_weak" in open_spans \
            and "pretrain.distill" not in open_spans:
        tracer.count("pretrain.train_weak.steps")


def _conv2d_macs(layer, y_shape):
    b, c_out, t_out, f_out = y_shape
    kt, kf = layer.kernel
    return b * c_out * t_out * f_out * layer.c_in * kt * kf


def _count_conv2d_forward(tracer, args, kwargs, result):
    tracer.count("nn.Conv2d.gflop", 2e-9 * _conv2d_macs(args[0],
                                                        result[0].shape))


def _count_conv2d_backward(tracer, args, kwargs, result):
    layer, (_, x_shape), dy = args[0], args[1], args[2]
    # weight and input gradients: two products the size of the forward one
    tracer.count("nn.Conv2d.gflop", 4e-9 * _conv2d_macs(layer, dy.shape))
    if layer.c_in == 1 and _training(tracer):
        # the model's first layer: its input is the log-mel batch trained on
        tracer.count("train.fed_frames", x_shape[0] * x_shape[2])


def _count_embed_frames(tracer, args, kwargs, result):
    tracer.count("pretrain.embed_frames.audio_s", args[1].duration_s)


def _count_items(tracer, args, kwargs, result):
    tracer.count("augment.build_train_set.items", len(result))


def _count_windows(tracer, args, kwargs, result):
    tracer.count("detector.stream_scores.windows", len(result))


COUNTERS = {
    "dsp.logmel": _count_logmel,
    "dsp.load_wav": _count_load_wav,
    "nn.adamw_step": _count_adamw,
    "nn.Conv2d.forward": _count_conv2d_forward,
    "nn.Conv2d.backward": _count_conv2d_backward,
    "pretrain.embed_frames": _count_embed_frames,
    "augment.build_train_set": _count_items,
    "detector.stream_scores": _count_windows,
}


def _cli_span(args):
    argv = args[0] if args else []
    return "cli." + next((a for a in argv if a in CLI_COMMANDS), "main")


def _measure_memory(tracer, inner):
    """``inner`` with its peak allocation growth (tracemalloc) recorded."""
    def measured(*args, **kwargs):
        if not tracer.enabled:
            return inner(*args, **kwargs)
        tracemalloc.start()
        try:
            return inner(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            key = "dsp.load_wav.rss_growth_mib"
            tracer.counts[key] = max(tracer.counts[key], peak / 2 ** 20)
    return measured


def _public_functions(module):
    """Names of the public functions a module defines (or, for the ``nn``
    package, re-exports from its submodules)."""
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and not name.startswith("_")
                  and obj.__module__.startswith(module.__name__))


def install(tracer):
    """Wrap every layer; ``tracer.unwrap_all()`` undoes it."""
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[-1]
        for fn in _public_functions(module):
            name = _cli_span if module is cli and fn == "main" \
                else f"{short}.{fn}"
            tracer.wrap(module, fn, name, COUNTERS.get(name))
    for cls in NN_CLASSES:
        for method in ("forward", "backward"):
            name = f"nn.{cls}.{method}"
            tracer.wrap(getattr(nn, cls), method, name, COUNTERS.get(name))
    tracer.replace(dsp, "load_wav", _measure_memory(tracer, dsp.load_wav))


# -- metrics --------------------------------------------------------------------

# spans of a function that are not counted under its name: the student's
# training inside ``distill`` is not teacher training
OUTSIDE = {"pretrain.train_weak": ("pretrain.distill",)}


def _phase_metrics(rec):
    """Per-layer values of one recorded phase, before the ratios."""
    self_times = rec.self_times()
    out = {f"layer.{m}.self_s": 0.0 for m in LAYERS}
    for span, t in zip(rec.spans, self_times):
        key = f"layer.{span.name.split('.', 1)[0]}.self_s"
        if key in out:
            out[key] += t
    for name, _ in PER_LAYER:
        if name.endswith(".self_s") and name not in out:
            fn = name[:-len(".self_s")]
            out[name] = rec.self_total(fn, OUTSIDE.get(fn, ()), self_times)
        elif name.endswith(".s"):
            fn = name[:-len(".s")]
            out[name] = rec.total(fn, OUTSIDE.get(fn, ()))
        elif name.endswith(".calls"):
            out[name] = rec.calls(name[:-len(".calls")])
    out.update(rec.counts)
    out["trace.spans"] = len(rec.spans)
    return out


def per_layer(setup_rec, round_rec, n_rounds, extra):
    """Per-layer metrics of one set-up plus the mean round.

    ``extra`` holds values the workload measured itself
    (``curation.shot_iou_ok_ratio``, ``trace.round_s``,
    ``trace.overhead_s``).
    """
    a = _phase_metrics(setup_rec)
    b = _phase_metrics(round_rec)
    values = {k: a.get(k, 0.0) + b.get(k, 0.0) / n_rounds
              for k in set(a) | set(b)}
    values["dsp.load_wav.rss_growth_mib"] = max(
        a.get("dsp.load_wav.rss_growth_mib", 0.0),
        b.get("dsp.load_wav.rss_growth_mib", 0.0))
    computed = values.get("train.logmel_frames", 0.0)
    values["pretrain.logmel_frames_used_ratio"] = \
        values.get("train.fed_frames", 0.0) / computed if computed else 0.0
    values.update(extra)
    units = dict(PER_LAYER)
    return {name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
            for name, _ in PER_LAYER}
