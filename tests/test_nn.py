import dataclasses

import numpy as np
import pytest

from seqshot import nn
from seqshot.errors import (
    FormatError,
    ShapeError,
    StaleCacheError,
    TruncatedFileError,
    UnknownTensorError,
    VersionMismatchError,
)
from gradcheck import assert_grad_matches
from reference_ops import EinsumConv1d, EinsumConv2d


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def quadratic_loss(y):
    return 0.5 * float((y ** 2).sum())


def run_layer_gradcheck(layer, x, rng, check_params=True):
    """Check input (and optionally parameter) grads of a single layer
    against central finite differences under a quadratic loss."""
    g = nn.Graph([layer])

    def loss():
        y, _ = g.forward(x)
        return quadratic_loss(y)

    y, cache = g.forward(x)
    g.zero_grads()
    dx = g.backward(cache, y.copy())
    assert_grad_matches(loss, x, dx, rng)
    if check_params:
        for key, p in layer.params.items():
            assert_grad_matches(loss, p, layer.grads[key], rng)


# -- forward behavior ---------------------------------------------------------

def test_empty_graph_is_identity(rng):
    x = rng.normal(size=(2, 3))
    y, _ = nn.Graph([]).forward(x)
    np.testing.assert_array_equal(y, x)


def test_linear_identity_weights(rng):
    lin = nn.Linear(4, 4, "lin", rng)
    lin.params["W"][...] = np.eye(4)
    lin.params["b"][...] = 0.0
    x = rng.normal(size=(5, 4))
    y, _ = nn.Graph([lin]).forward(x)
    np.testing.assert_allclose(y, x)


def test_causal_conv_impulse_response(rng):
    conv = nn.Conv1d(1, 1, kernel=3, name="c", rng=rng, dilation=2, causal=True)
    w = np.array([0.5, -1.0, 2.0])
    conv.params["W"][0, 0] = w
    conv.params["b"][...] = 0.0
    x = np.zeros((1, 1, 8))
    x[0, 0, 3] = 1.0
    y, _ = nn.Graph([conv]).forward(x)
    assert y.shape == (1, 1, 8)
    # taps at delays 0, 2, 4; zero before the input onset
    expected = np.zeros(8)
    expected[3] = w[2]
    expected[5] = w[1]
    expected[7] = w[0]
    np.testing.assert_allclose(y[0, 0], expected)
    assert np.all(y[0, 0, :3] == 0.0)


def test_causal_conv_never_sees_future(rng):
    conv = nn.Conv1d(2, 3, kernel=3, name="c", rng=rng, dilation=2, causal=True)
    g = nn.Graph([conv])
    x = rng.normal(size=(1, 2, 12))
    y0, _ = g.forward(x)
    x2 = x.copy()
    x2[:, :, 7:] += rng.normal(size=(1, 2, 5))
    y1, _ = g.forward(x2)
    np.testing.assert_array_equal(y0[:, :, :7], y1[:, :, :7])


def test_shape_error_names_layer(rng):
    conv = nn.Conv1d(2, 3, kernel=3, name="badger", rng=rng)
    with pytest.raises(ShapeError, match="badger"):
        nn.Graph([conv]).forward(np.zeros((1, 5, 10)))


def test_forward_is_deterministic(rng):
    g = nn.Graph([
        nn.Conv1d(2, 4, kernel=3, name="c", rng=rng, causal=True),
        nn.ReLU("r"),
        nn.MeanOverTime("p"),
        nn.Linear(4, 2, "head", rng),
    ])
    x = rng.normal(size=(3, 2, 9))
    y0, _ = g.forward(x)
    y1, _ = g.forward(x)
    np.testing.assert_array_equal(y0, y1)


def test_global_pool_time_length_invariance(rng):
    g = nn.Graph([nn.GlobalChannelPool("p")])
    const = rng.normal(size=(1, 3, 1, 1))
    short = np.broadcast_to(const, (1, 3, 5, 4)).copy()
    long = np.broadcast_to(const, (1, 3, 17, 4)).copy()
    ys, _ = g.forward(short)
    yl, _ = g.forward(long)
    np.testing.assert_allclose(ys, yl)


# -- backward behavior --------------------------------------------------------

def test_linear_backward_matches_wt_dy(rng):
    lin = nn.Linear(4, 3, "lin", rng)
    g = nn.Graph([lin])
    x = rng.normal(size=(2, 4))
    _, cache = g.forward(x)
    dy = rng.normal(size=(2, 3))
    dx = g.backward(cache, dy)
    np.testing.assert_allclose(dx, dy @ lin.params["W"].T)


def test_relu_zero_grad_at_negative(rng):
    g = nn.Graph([nn.ReLU("r")])
    x = np.array([[-2.0, 3.0]])
    y, cache = g.forward(x)
    dx = g.backward(cache, np.ones_like(y))
    np.testing.assert_array_equal(dx, [[0.0, 1.0]])


def test_mean_over_time_grad_uniform(rng):
    g = nn.Graph([nn.MeanOverTime("p")])
    x = rng.normal(size=(1, 2, 5))
    y, cache = g.forward(x)
    dx = g.backward(cache, np.ones_like(y))
    np.testing.assert_allclose(dx, np.full((1, 2, 5), 1.0 / 5.0))


def test_stale_cache_rejected(rng):
    lin = nn.Linear(3, 3, "lin", rng)
    g = nn.Graph([lin])
    y, cache = g.forward(rng.normal(size=(1, 3)))
    g.mark_updated()
    with pytest.raises(StaleCacheError):
        g.backward(cache, np.ones_like(y))


# -- gradient checks per layer -------------------------------------------------

def test_gradcheck_linear(rng):
    run_layer_gradcheck(nn.Linear(5, 3, "lin", rng), rng.normal(size=(2, 5)), rng)


@pytest.mark.parametrize("kwargs", [
    dict(dilation=1, causal=False),
    dict(dilation=2, causal=False),
    dict(dilation=3, causal=True),
    dict(dilation=1, causal=True),
])
def test_gradcheck_conv1d(rng, kwargs):
    layer = nn.Conv1d(2, 3, kernel=3, name="c", rng=rng, **kwargs)
    run_layer_gradcheck(layer, rng.normal(size=(2, 2, 11)), rng)


@pytest.mark.parametrize("stride,pad", [((1, 1), (0, 0)), ((2, 2), (1, 1)),
                                        ((2, 3), (0, 1)), ((2, 1), (0, 0)),
                                        ((1, 1), (1, 0))])
def test_gradcheck_conv2d(rng, stride, pad):
    layer = nn.Conv2d(2, 3, kernel=(2, 3), name="c", rng=rng,
                      stride=stride, pad=pad)
    run_layer_gradcheck(layer, rng.normal(size=(2, 2, 8, 7)), rng)


def test_gradcheck_relu(rng):
    x = rng.normal(size=(2, 6))
    x[np.abs(x) < 0.05] = 0.1   # stay clear of the kink
    run_layer_gradcheck(nn.ReLU("r"), x, rng, check_params=False)


@pytest.mark.parametrize("layer_cls,shape", [
    (nn.MeanOverTime, (2, 3, 7)),
    (nn.MeanOverFreq, (2, 3, 5, 4)),
    (nn.GlobalChannelPool, (2, 3, 5, 4)),
])
def test_gradcheck_pools(rng, layer_cls, shape):
    run_layer_gradcheck(layer_cls("p"), rng.normal(size=shape), rng,
                        check_params=False)


def test_gradcheck_deep_chain(rng):
    g = nn.Graph([
        nn.Conv2d(1, 3, kernel=(2, 3), name="c2", rng=rng, stride=(2, 2),
                  pad=(0, 1)),
        nn.ReLU("r1"),
        nn.MeanOverFreq("mf"),
        nn.Conv1d(3, 4, kernel=3, name="c1", rng=rng, dilation=2, causal=True),
        nn.ReLU("r2"),
        nn.MeanOverTime("mt"),
        nn.Linear(4, 2, "head", rng),
    ])
    x = rng.normal(size=(2, 1, 9, 8))

    def loss():
        y, _ = g.forward(x)
        return quadratic_loss(y)

    y, cache = g.forward(x)
    g.zero_grads()
    dx = g.backward(cache, y.copy())
    assert_grad_matches(loss, x, dx, rng)
    for key, p in g.params().items():
        assert_grad_matches(loss, p, g.grads()[key], rng, n_idx=4)


# -- optimizer and schedule -----------------------------------------------------

def test_adamw_zero_grad_no_decay_is_noop():
    p = np.array([1.0, -2.0])
    st = nn.adamw_init(p)
    nn.adamw_step(p, np.zeros(2), st, lr=0.01)
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_adamw_first_step_is_signed_lr():
    p = np.array([0.0])
    st = nn.adamw_init(p)
    nn.adamw_step(p, np.array([1.0]), st, lr=0.01)
    np.testing.assert_allclose(p, [-0.01], rtol=1e-6)


def test_adamw_pure_decay():
    p = np.array([1.0])
    st = nn.adamw_init(p)
    nn.adamw_step(p, np.array([0.0]), st, lr=0.01, weight_decay=0.1)
    np.testing.assert_allclose(p, [0.999])


def test_adamw_refuses_mismatched_gradient():
    p = np.zeros(3)
    with pytest.raises(ValueError, match="shape mismatch"):
        nn.adamw_step(p, np.zeros(2), nn.adamw_init(p), lr=0.01)


def test_one_cycle_endpoints():
    # the pretraining schedule over 1000 steps
    assert nn.one_cycle_lr(0, 1000) == pytest.approx(0.0001)
    assert nn.one_cycle_lr(100, 1000) == pytest.approx(0.01)   # warmup end
    assert nn.one_cycle_lr(1000, 1000) == pytest.approx(0.0001)


def test_one_cycle_monotone_decay_after_peak():
    lrs = [nn.one_cycle_lr(s, 1000) for s in range(100, 1001)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


# -- modules and checkpoints ---------------------------------------------------

@dataclasses.dataclass
class TinyConfig:
    channels: tuple = (2, 3)
    seed: int = 0


class Tiny(nn.Module):
    KIND = "tiny"
    CONFIG = TinyConfig
    META = ("channels",)

    def __init__(self, config):
        rng = np.random.default_rng(config.seed)
        c_in, c_hid = config.channels
        super().__init__(
            config,
            body=nn.Graph([
                nn.Conv1d(c_in, c_hid, kernel=3, name="c", rng=rng,
                          causal=True),
                nn.ReLU("r"),
                nn.MeanOverTime("p"),
            ]),
            out=nn.Graph([nn.Linear(c_hid, 2, "head", rng)]))


def test_module_forward_backward_chain_graphs(rng):
    m = Tiny(TinyConfig())
    x = rng.normal(size=(2, 2, 5))
    y, cache = m.forward(x)
    h, c1 = m.body.forward(x)
    y_ref, c2 = m.out.forward(h)
    np.testing.assert_array_equal(y, y_ref)
    dy = rng.normal(size=y.shape)
    m.zero_grads()
    m.backward(cache, dy)       # skips the input gradient, which nothing reads
    grads = {k: v.copy() for k, v in m.grads().items()}
    m.zero_grads()
    m.body.backward(c1, m.out.backward(c2, dy))
    for k, v in m.grads().items():
        np.testing.assert_array_equal(grads[k], v)


def test_fit_equals_hand_written_adamw_loop(rng):
    x = rng.normal(size=(6, 2, 5))
    order = [np.array([0, 1, 2]), np.array([3, 4, 5])]

    def loss_and_backward(m, idx):
        y, cache = m.forward(x[idx])
        m.backward(cache, y)
        return quadratic_loss(y)

    m = Tiny(TinyConfig())
    curve = nn.fit(m, 3, lambda: iter(order),
                   lambda idx: loss_and_backward(m, idx),
                   lambda step: 0.01 / (step + 1), 0.1)
    ref = Tiny(TinyConfig())
    params, grads = ref.params(), ref.grads()
    states = {k: nn.adamw_init(p) for k, p in params.items()}   # per tensor
    step, ref_curve = 0, []
    for _ in range(3):
        losses = []
        for idx in order:
            ref.zero_grads()
            losses.append(loss_and_backward(ref, idx))
            for k, p in params.items():
                nn.adamw_step(p, grads[k], states[k], 0.01 / (step + 1), 0.1)
            ref.mark_updated()
            step += 1
        ref_curve.append((losses[0] + losses[1]) / 2)
    assert curve == ref_curve
    for k, v in m.params().items():
        np.testing.assert_array_equal(v, params[k])


def test_fit_invalidates_caches(rng):
    m = Tiny(TinyConfig())
    x = rng.normal(size=(1, 2, 4))
    _, cache = m.body.forward(x)

    def step_loss(batch):
        y, c = m.forward(batch)
        m.backward(c, np.ones_like(y))
        return 0.0
    nn.fit(m, 1, lambda: [x], step_loss, lambda step: 0.01, 0.0)
    with pytest.raises(StaleCacheError):
        m.body.backward(cache, np.ones((1, 3, 4)))


def test_checkpoint_roundtrip_bitwise(tmp_path):
    m = Tiny(TinyConfig(channels=(2, 4), seed=5))
    path = tmp_path / "m.sqck"
    m.save(path)
    m2 = Tiny.load(path)
    assert m2.config.channels == (2, 4)
    for k, v in m.params().items():
        np.testing.assert_array_equal(v, m2.params()[k])


def test_checkpoint_file_level_roundtrip(tmp_path):
    p1, p2 = tmp_path / "a.sqck", tmp_path / "b.sqck"
    Tiny(TinyConfig(seed=5)).save(p1)
    Tiny.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    kind, tensors = nn.read_checkpoint(p1)
    assert kind == "tiny"
    assert list(tensors) == ["body/c/W", "body/c/b", "out/head/W",
                             "out/head/b", "meta/channels"]


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "m.sqck"
    Tiny(TinyConfig()).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(TruncatedFileError):
        Tiny.load(path)


def test_checkpoint_bad_magic(rng, tmp_path):
    path = tmp_path / "g.sqck"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        nn.read_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "m.sqck"
    Tiny(TinyConfig()).save(path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        nn.read_checkpoint(path)


def test_checkpoint_unknown_tensor(tmp_path):
    path = tmp_path / "m.sqck"
    Tiny(TinyConfig()).save(path)
    kind, tensors = nn.read_checkpoint(path)
    tensors["nonexistent/W"] = np.zeros((2, 2))
    nn.write_checkpoint(path, kind, tensors)
    with pytest.raises(UnknownTensorError):
        Tiny.load(path)


@pytest.mark.parametrize("fault", ["missing", "shape", "unknown"])
def test_load_refuses_bad_parameter_tensor(tmp_path, fault):
    # ``load`` builds a fresh module and returns it only once every tensor
    # has passed, so a refused file leaves no model, whole or in part
    path = tmp_path / "m.sqck"
    Tiny(TinyConfig(seed=3)).save(path)
    kind, tensors = nn.read_checkpoint(path)
    if fault == "missing":
        del tensors["out/head/b"]
    elif fault == "shape":
        tensors["out/head/b"] = np.zeros(5)
    else:
        tensors["stray/W"] = np.zeros(2)
    nn.write_checkpoint(path, kind, tensors)
    expected = UnknownTensorError if fault == "unknown" else FormatError
    with pytest.raises(expected):
        Tiny.load(path)


# -- im2col GEMM convolutions against the einsum reference --------------------

def assert_rel_close(a, b, tol=1e-12):
    assert a.shape == b.shape
    assert np.linalg.norm(a - b) <= tol * np.linalg.norm(b)


def _graph_grads(graph, x, dy):
    y, cache = graph.forward(x)
    graph.zero_grads()
    dx = graph.backward(cache, dy)
    return y, dx, {k: v.copy() for k, v in graph.grads().items()}


def assert_matches_reference(layers, ref_layers, x, rng):
    """Same outputs, input gradients and parameter gradients as the
    reference layers, from the same parameters."""
    graph, ref = nn.Graph(layers), nn.Graph(ref_layers)
    for k, v in ref.params().items():
        v[...] = graph.params()[k]
    y_ref, _ = ref.forward(x)
    dy = rng.normal(size=y_ref.shape)
    y, dx, grads = _graph_grads(graph, x, dy)
    y_ref, dx_ref, grads_ref = _graph_grads(ref, x, dy)
    assert_rel_close(y, y_ref)
    assert_rel_close(dx, dx_ref)
    for k in grads_ref:
        assert_rel_close(grads[k], grads_ref[k])


CONV1D_CASES = {
    "causal": dict(kernel=3, causal=True),
    "dilated": dict(kernel=3, dilation=2, causal=True),
    "kernel_1": dict(kernel=1),
}


@pytest.mark.parametrize("case", sorted(CONV1D_CASES))
def test_conv1d_gemm_matches_einsum_reference(rng, case):
    kw = CONV1D_CASES[case]
    layer = nn.Conv1d(3, 4, name="c", rng=rng, **kw)
    ref = EinsumConv1d(3, 4, name="c", rng=rng, **kw)
    assert_matches_reference([layer], [ref], rng.normal(size=(2, 3, 13)), rng)


CONV2D_CASES = {
    "backbone": dict(kernel=(2, 3), stride=(2, 2), pad=(0, 1)),
    "strided": dict(kernel=(3, 2), stride=(2, 3)),
    "padded": dict(kernel=(3, 3), pad=(2, 1)),
    "kernel_1": dict(kernel=(1, 1)),
    "strided_time": dict(kernel=(3, 1), stride=(2, 1)),
    "padded_time": dict(kernel=(2, 1), pad=(2, 0)),
    "strided_padded": dict(kernel=(3, 3), stride=(2, 2), pad=(1, 1)),
}


@pytest.mark.parametrize("case", sorted(CONV2D_CASES))
def test_conv2d_gemm_matches_einsum_reference(rng, case):
    kw = CONV2D_CASES[case]
    layer = nn.Conv2d(2, 3, name="c", rng=rng, **kw)
    ref = EinsumConv2d(2, 3, name="c", rng=rng, **kw)
    assert_matches_reference([layer], [ref], rng.normal(size=(2, 2, 9, 8)),
                             rng)


# layer, reference, kwargs, input shape, and the kernel offsets of W none of
# whose reads falls inside the input
DEAD_OFFSET_CASES = {
    "conv1d_causal_dilated": (nn.Conv1d, EinsumConv1d,
                              dict(kernel=3, dilation=4, causal=True),
                              (2, 3, 3), np.s_[:, :, :2]),
    "conv1d_causal_dilated_partly": (nn.Conv1d, EinsumConv1d,
                                     dict(kernel=3, dilation=4, causal=True),
                                     (2, 3, 6), np.s_[:, :, :1]),
    "conv2d_backbone_two_bins": (nn.Conv2d, EinsumConv2d,
                                 dict(kernel=(2, 3), stride=(2, 2),
                                      pad=(0, 1)),
                                 (2, 2, 6, 2), np.s_[:, :, :, :1]),
    "conv2d_backbone_one_bin": (nn.Conv2d, EinsumConv2d,
                                dict(kernel=(2, 3), stride=(2, 2),
                                     pad=(0, 1)),
                                (2, 2, 6, 1), np.s_[:, :, :, ::2]),
}


@pytest.mark.parametrize("case", sorted(DEAD_OFFSET_CASES))
def test_conv_dead_offsets_match_reference_with_zero_weight_grad(rng, case):
    # inputs shorter than the receptive field: offsets that read only
    # padding are dropped, and their weight gradient stays exactly 0
    conv, ref_conv, kw, shape, dead = DEAD_OFFSET_CASES[case]
    layer = conv(shape[1], 4, name="c", rng=rng, **kw)
    ref = ref_conv(shape[1], 4, name="c", rng=rng, **kw)
    assert_matches_reference([layer], [ref], rng.normal(size=shape), rng)
    dw = layer.grads["W"]
    assert dw[dead].size and np.all(dw[dead] == 0.0)
    assert np.count_nonzero(dw) == dw.size - dw[dead].size


def test_conv_stacks_match_einsum_reference(rng):
    # each conv reads the previous one's output layout, forward and back
    def stack1d(conv):
        return [conv(3, 4, 1, "proj", rng),
                conv(4, 4, 3, "c0", rng, causal=True), nn.ReLU("r0"),
                conv(4, 4, 3, "c1", rng, dilation=2, causal=True),
                nn.ReLU("r1"), nn.MeanOverTime("pool")]
    assert_matches_reference(stack1d(nn.Conv1d), stack1d(EinsumConv1d),
                             rng.normal(size=(3, 3, 9)), rng)

    def stack2d(conv):
        return [conv(1, 3, (2, 3), "c0", rng, stride=(2, 2), pad=(0, 1)),
                nn.ReLU("r0"),
                conv(3, 4, (2, 3), "c1", rng, stride=(2, 2), pad=(0, 1)),
                nn.ReLU("r1"), nn.MeanOverFreq("fpool")]
    assert_matches_reference(stack2d(nn.Conv2d), stack2d(EinsumConv2d),
                             rng.normal(size=(2, 1, 16, 12)), rng)


# -- backward switches ---------------------------------------------------------

def _small_net(rng):
    return nn.Graph([
        nn.Conv2d(1, 3, (2, 3), "c0", rng, stride=(2, 2), pad=(0, 1)),
        nn.ReLU("r0"),
        nn.GlobalChannelPool("pool"),
        nn.Linear(3, 2, "fc", rng),
    ])


def test_skipping_input_grad_leaves_param_grads_bitwise(rng):
    g = _small_net(rng)
    x = rng.normal(size=(2, 1, 8, 6))
    y, cache = g.forward(x)
    dy = rng.normal(size=y.shape)
    g.zero_grads()
    dx = g.backward(cache, dy)
    grads = {k: v.copy() for k, v in g.grads().items()}
    g.zero_grads()
    assert dx is not None and g.backward(cache, dy, input_grad=False) is None
    for k, v in g.grads().items():
        np.testing.assert_array_equal(v, grads[k])
