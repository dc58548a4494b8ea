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
    res = g.backward(cache, y.copy())
    assert_grad_matches(loss, x, res.dx, rng)
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
    res = g.backward(cache, dy)
    np.testing.assert_allclose(res.dx, dy @ lin.params["W"].T)


def test_relu_zero_grad_at_negative(rng):
    g = nn.Graph([nn.ReLU("r")])
    x = np.array([[-2.0, 3.0]])
    y, cache = g.forward(x)
    res = g.backward(cache, np.ones_like(y))
    np.testing.assert_array_equal(res.dx, [[0.0, 1.0]])


def test_mean_over_time_grad_uniform(rng):
    g = nn.Graph([nn.MeanOverTime("p")])
    x = rng.normal(size=(1, 2, 5))
    y, cache = g.forward(x)
    res = g.backward(cache, np.ones_like(y))
    np.testing.assert_allclose(res.dx, np.full((1, 2, 5), 1.0 / 5.0))


def test_stale_cache_rejected(rng):
    lin = nn.Linear(3, 3, "lin", rng)
    g = nn.Graph([lin])
    y, cache = g.forward(rng.normal(size=(1, 3)))
    g.mark_updated()
    with pytest.raises(StaleCacheError):
        g.backward(cache, np.ones_like(y))


def test_feature_grads_by_name(rng):
    g = nn.Graph([
        nn.Linear(3, 4, "a", rng),
        nn.ReLU("r"),
        nn.Linear(4, 2, "b", rng),
    ])
    y, cache = g.forward(rng.normal(size=(1, 3)))
    res = g.backward(cache, np.ones_like(y))
    assert set(res.feature_grads) == {"a", "r", "b", "input"}
    assert res.feature_grads["a"].shape == (1, 4)
    grads = {k: v.copy() for k, v in g.grads().items()}
    g.zero_grads()
    bare = g.backward(cache, np.ones_like(y), features=False)
    assert bare.feature_grads == {}
    np.testing.assert_array_equal(bare.dx, res.dx)
    for k, v in g.grads().items():
        np.testing.assert_array_equal(v, grads[k])


# -- gradient checks per layer -------------------------------------------------

def test_gradcheck_linear(rng):
    run_layer_gradcheck(nn.Linear(5, 3, "lin", rng), rng.normal(size=(2, 5)), rng)


@pytest.mark.parametrize("kwargs", [
    dict(stride=1, dilation=1, causal=False),
    dict(stride=2, dilation=1, causal=False),
    dict(stride=1, dilation=3, causal=True),
    dict(stride=1, dilation=1, causal=False, pad=1),
])
def test_gradcheck_conv1d(rng, kwargs):
    layer = nn.Conv1d(2, 3, kernel=3, name="c", rng=rng, **kwargs)
    run_layer_gradcheck(layer, rng.normal(size=(2, 2, 11)), rng)


@pytest.mark.parametrize("stride,pad", [((1, 1), (0, 0)), ((2, 2), (1, 1)),
                                        ((2, 3), (0, 1))])
def test_gradcheck_conv2d(rng, stride, pad):
    layer = nn.Conv2d(2, 3, kernel=(2, 3), name="c", rng=rng,
                      stride=stride, pad=pad)
    run_layer_gradcheck(layer, rng.normal(size=(2, 2, 8, 7)), rng)


def test_gradcheck_relu(rng):
    x = rng.normal(size=(2, 6))
    x[np.abs(x) < 0.05] = 0.1   # stay clear of the kink
    run_layer_gradcheck(nn.ReLU("r"), x, rng, check_params=False)


def test_gradcheck_sigmoid(rng):
    run_layer_gradcheck(nn.Sigmoid("s"), rng.normal(size=(2, 6)), rng,
                        check_params=False)


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
    res = g.backward(cache, y.copy())
    assert_grad_matches(loss, x, res.dx, rng)
    for key, p in g.params().items():
        assert_grad_matches(loss, p, g.grads()[key], rng, n_idx=4)


# -- optimizer and schedule -----------------------------------------------------

def test_adamw_zero_grad_no_decay_is_noop():
    p = {"w": np.array([1.0, -2.0])}
    st = nn.adamw_init(p)
    nn.adamw_step(p, {"w": np.zeros(2)}, st, lr=0.01)
    np.testing.assert_array_equal(p["w"], [1.0, -2.0])


def test_adamw_first_step_is_signed_lr():
    p = {"w": np.array([0.0])}
    st = nn.adamw_init(p)
    nn.adamw_step(p, {"w": np.array([1.0])}, st, lr=0.01)
    np.testing.assert_allclose(p["w"], [-0.01], rtol=1e-6)


def test_adamw_pure_decay():
    p = {"w": np.array([1.0])}
    st = nn.adamw_init(p)
    nn.adamw_step(p, {"w": np.array([0.0])}, st, lr=0.01, weight_decay=0.1)
    np.testing.assert_allclose(p["w"], [0.999])


def test_one_cycle_endpoints():
    assert nn.one_cycle_lr(0, 1000) == pytest.approx(0.0001)
    assert nn.one_cycle_lr(100, 1000) == pytest.approx(0.01)   # warmup end
    assert nn.one_cycle_lr(1000, 1000) == pytest.approx(0.0001)


def test_one_cycle_monotone_decay_after_peak():
    lrs = [nn.one_cycle_lr(s, 1000) for s in range(100, 1001)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


# -- checkpoints -----------------------------------------------------------------

def make_graph(rng):
    return nn.Graph([
        nn.Conv1d(2, 3, kernel=3, name="c", rng=rng, causal=True),
        nn.ReLU("r"),
        nn.MeanOverTime("p"),
        nn.Linear(3, 2, "head", rng),
    ])


def test_checkpoint_roundtrip_bitwise(rng, tmp_path):
    g = make_graph(rng)
    path = tmp_path / "g.sqck"
    nn.save_checkpoint(g, path, kind="graph")
    g2 = make_graph(np.random.default_rng(999))
    nn.load_checkpoint(path, g2, expect_kind="graph")
    for k, v in g.params().items():
        np.testing.assert_array_equal(v, g2.params()[k])


def test_checkpoint_file_level_roundtrip(rng, tmp_path):
    g = make_graph(rng)
    p1, p2 = tmp_path / "a.sqck", tmp_path / "b.sqck"
    nn.save_checkpoint(g, p1)
    g2 = make_graph(np.random.default_rng(999))
    nn.load_checkpoint(p1, g2)
    nn.save_checkpoint(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncated(rng, tmp_path):
    g = make_graph(rng)
    path = tmp_path / "g.sqck"
    nn.save_checkpoint(g, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(TruncatedFileError):
        nn.load_checkpoint(path, make_graph(rng))


def test_checkpoint_bad_magic(rng, tmp_path):
    path = tmp_path / "g.sqck"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        nn.read_checkpoint(path)


def test_checkpoint_version_mismatch(rng, tmp_path):
    g = make_graph(rng)
    path = tmp_path / "g.sqck"
    nn.save_checkpoint(g, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        nn.read_checkpoint(path)


def test_checkpoint_unknown_tensor(rng, tmp_path):
    path = tmp_path / "g.sqck"
    nn.write_checkpoint(path, "graph", {"nonexistent/W": np.zeros((2, 2))})
    with pytest.raises(UnknownTensorError):
        nn.load_checkpoint(path, make_graph(rng))


@pytest.mark.parametrize("fault", ["missing", "shape", "unknown"])
def test_rejected_checkpoint_leaves_graph_untouched(rng, tmp_path, fault):
    path = tmp_path / "g.sqck"
    tensors = make_graph(rng).params()
    if fault == "missing":
        del tensors["head/b"]
    elif fault == "shape":
        tensors["head/b"] = np.zeros(5)
    else:
        tensors["stray/W"] = np.zeros(2)
    nn.write_checkpoint(path, "graph", tensors)
    g = make_graph(np.random.default_rng(7))
    before = {k: v.copy() for k, v in g.params().items()}
    expected = UnknownTensorError if fault == "unknown" else FormatError
    with pytest.raises(expected):
        nn.load_checkpoint(path, g)
    for k, v in g.params().items():
        np.testing.assert_array_equal(v, before[k])
