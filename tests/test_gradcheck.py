"""Finite-difference checks for every differentiable primitive.

The analytic gradient of a scalar loss through each op is compared with
central finite differences (h = 1e-5) on random inputs in [-1, 1], 100
seeded trials per primitive, guarded relative error below 1e-6. The relu
exists only fused into ``affine`` and ``batchnorm``; their trials redraw
inputs until every pre-activation is a safe margin away from the kink,
where the derivative does not exist and finite differences are
meaningless.

A small model with a broadcast block is checked end to end per entry,
and a narrow ``pixel-l``-shaped model along random directions, the way
the gradcheck verify suite checks its preset, which has no broadcast
block.
Eval mode, where each batchnorm is folded into its layer's weights, is
checked end to end on the gradcheck preset, on the broadcast model and on
the order-n aggregation, all with non-trivial running statistics.
"""

import inspect

import numpy as np
import pytest

from pinset import tensor as tensor_mod
from pinset import verify
from pinset.blocks import Mlp, MlpSpec, aggregate_order_n
from pinset.models import (
    AggregationSpec,
    Model,
    ModelConfig,
    _twin_aggregation,
    build_model,
    gradcheck_config,
    pixel_l_config,
)
from pinset.rng import RngState
from pinset.tensor import (
    BN_EPS,
    BatchNormState,
    Tensor,
    add,
    affine,
    backward,
    batchnorm,
    finite_difference_gradient,
    matmul,
    mul,
    no_grad,
    pair_aggregate,
    relu_inputs,
    reshape,
    set_softmax,
    softmax_cross_entropy,
    squashing,
    sum_all,
    sum_product,
    tile_rows,
)
from pinset.verify import _draw_gradcheck_batch, relative_error

TRIALS = 100
H = 1e-5
TOL = 1e-6


def _check(build_loss, x0: np.ndarray) -> float:
    """Max guarded relative error between analytic and FD gradients of the
    scalar loss built from a single input tensor."""
    t = Tensor(x0.copy(order="K"), requires_grad=True)
    grads = backward(build_loss(t))
    analytic = grads[t]

    def f(arr):
        return float(build_loss(Tensor(arr)).data)

    fd = finite_difference_gradient(f, x0.copy(order="K"), h=H)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1.0)
    return float(np.max(np.abs(fd - analytic) / denom))


def _weighted(gen, shape):
    # a fixed random weighting makes the scalar loss sensitive to every entry
    w = gen.uniform(-1.0, 1.0, size=shape)
    return lambda t: sum_all(mul(t, Tensor(w)))


@pytest.mark.parametrize("trial", range(TRIALS))
def test_primitive_gradients(trial):
    gen = RngState(1000 + trial).generator()
    worst = 0.0

    x = gen.uniform(-1, 1, size=(4, 3))
    w = gen.uniform(-1, 1, size=(3, 5))
    wl = _weighted(gen, (4, 5))
    worst = max(worst, _check(lambda t: wl(matmul(t, Tensor(w))), x))
    wr = _weighted(gen, (4, 5))
    worst = max(worst, _check(lambda t: wr(matmul(Tensor(x), t)), w))

    b = gen.uniform(-1, 1, size=5)
    base = gen.uniform(-1, 1, size=(4, 5))
    wa = _weighted(gen, (4, 5))
    worst = max(worst, _check(lambda t: wa(add(t, Tensor(b))), base))
    worst = max(worst, _check(lambda t: wa(add(Tensor(base), t)), b))

    ws = _weighted(gen, (6, 3))
    # two sets of 3 rows: the grouped backward is checked across a set boundary
    worst = max(worst, _check(lambda t: ws(set_softmax(t, 3)), gen.uniform(-1, 1, size=(6, 3))))
    worst = max(worst, _check(lambda t: ws(squashing(t)), gen.uniform(-1, 1, size=(6, 3))))

    a3 = gen.uniform(-1, 1, size=(2, 5, 3))
    b3 = gen.uniform(-1, 1, size=(2, 5, 4))
    wp = _weighted(gen, (2, 3, 4))
    worst = max(worst, _check(lambda t: wp(pair_aggregate(t, Tensor(b3))), a3))
    wp2 = _weighted(gen, (2, 3, 4))
    worst = max(worst, _check(lambda t: wp2(pair_aggregate(Tensor(a3), t)), b3))

    f1 = gen.uniform(-1, 1, size=(5, 2))
    f2 = gen.uniform(-1, 1, size=(5, 3))
    f3 = gen.uniform(-1, 1, size=(5, 2))
    wsp = _weighted(gen, (2, 3, 2))
    worst = max(
        worst,
        _check(lambda t: wsp(sum_product([t, Tensor(f2), Tensor(f3)])), f1),
    )
    worst = max(
        worst,
        _check(lambda t: wsp(sum_product([Tensor(f1), Tensor(f2), t])), f3),
    )

    wt = _weighted(gen, (6, 3))
    worst = max(worst, _check(lambda t: wt(tile_rows(t, 3)), gen.uniform(-1, 1, size=(2, 3))))
    wre = _weighted(gen, (12,))
    worst = max(worst, _check(lambda t: wre(reshape(t, (12,))), gen.uniform(-1, 1, size=(3, 4))))

    labels = gen.integers(0, 4, size=5)
    worst = max(
        worst,
        _check(lambda t: softmax_cross_entropy(t, labels), gen.uniform(-1, 1, size=(5, 4))),
    )

    # a stream of their own keeps the draws of the checks above unchanged
    gd = RngState(2000 + trial).generator()
    for use_relu in (False, True):
        # redraw until every pre-activation is clear of the relu kink
        while True:
            xd, wd, bd = (gd.uniform(-1, 1, size=s) for s in ((4, 3), (3, 5), 5))
            if np.min(np.abs(xd @ wd + bd)) > 1e-3 and np.min(np.abs(xd @ wd)) > 1e-3:
                break
        wf = _weighted(gd, (4, 5))
        worst = max(worst, _check(lambda t: wf(affine(t, Tensor(wd), Tensor(bd), use_relu)), xd))
        worst = max(worst, _check(lambda t: wf(affine(Tensor(xd), t, Tensor(bd), use_relu)), wd))
        worst = max(worst, _check(lambda t: wf(affine(Tensor(xd), Tensor(wd), t, use_relu)), bd))
        worst = max(worst, _check(lambda t: wf(affine(t, Tensor(wd), None, use_relu)), xd))
        worst = max(worst, _check(lambda t: wf(affine(Tensor(xd), t, None, use_relu)), wd))

    wm = _weighted(gd, (4, 5))
    rows = gd.uniform(-1, 1, size=(4, 5))
    col = gd.uniform(-1, 1, size=5)
    worst = max(worst, _check(lambda t: wm(mul(t, Tensor(col))), rows))
    worst = max(worst, _check(lambda t: wm(mul(Tensor(rows), t)), col))

    # the fused train-mode layer w -> batchnorm -> relu, on a stream of its own
    gb = RngState(3000 + trial).generator()
    worst = max(worst, _check(sum_all, gb.uniform(-1, 1, size=(3, 4))))
    for use_bias in (False, True):
        # redraw until every pre-activation is clear of the relu kink
        while True:
            xb, wb = gb.uniform(-1, 1, size=(6, 3)), gb.uniform(-1, 1, size=(3, 4))
            gam, bet, bb = gb.uniform(0.5, 1.5, size=4), gb.uniform(-0.5, 0.5, size=4), gb.uniform(-1, 1, size=4)
            z = xb @ wb
            z = (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + BN_EPS)
            if np.min(np.abs(gam * z + bet)) > 1e-3:
                break
        wbn = _weighted(gb, (6, 4))
        operands = [xb, wb, gam, bet] + ([bb] if use_bias else [])

        def fused_loss(t, k, _operands=operands):
            x_, w_, g_, be_, *b_ = [t if j == k else Tensor(a) for j, a in enumerate(_operands)]
            return wbn(batchnorm(x_, g_, be_, BatchNormState(4), w=w_, b=b_[0] if b_ else None))

        for k, operand in enumerate(operands):
            worst = max(worst, _check(lambda t, _k=k: fused_loss(t, _k), operand))

    # a (rows, d) bias, one row per row, as the broadcast blocks pass their
    # tiled row in eval mode, on a stream of its own
    gr = RngState(4000 + trial).generator()
    for use_relu in (False, True):
        while True:
            xr, wr_, br = (gr.uniform(-1, 1, size=s) for s in ((6, 3), (3, 4), (6, 4)))
            if np.min(np.abs(xr @ wr_ + br)) > 1e-3:
                break
        wra = _weighted(gr, (6, 4))
        operands = [xr, wr_, br]

        def row_affine_loss(t, k, _relu=use_relu, _operands=operands):
            x_, w_, b_ = [t if j == k else Tensor(a) for j, a in enumerate(_operands)]
            return wra(affine(x_, w_, b_, _relu))

        for k, operand in enumerate(operands):
            worst = max(worst, _check(lambda t, _k=k: row_affine_loss(t, _k), operand))
    while True:
        xr, wr_, br = (gr.uniform(-1, 1, size=s) for s in ((6, 3), (3, 4), (6, 4)))
        gam, bet = gr.uniform(0.5, 1.5, size=4), gr.uniform(-0.5, 0.5, size=4)
        z = xr @ wr_ + br
        z = (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + BN_EPS)
        if np.min(np.abs(gam * z + bet)) > 1e-3:
            break
    wrb = _weighted(gr, (6, 4))
    operands = [xr, wr_, gam, bet, br]

    def row_bn_loss(t, k):
        x_, w_, g_, be_, b_ = [t if j == k else Tensor(a) for j, a in enumerate(operands)]
        return wrb(batchnorm(x_, g_, be_, BatchNormState(4), w=w_, b=b_))

    for k, operand in enumerate(operands):
        worst = max(worst, _check(lambda t, _k=k: row_bn_loss(t, _k), operand))

    # a per-set (S, d) bias, one row per set of 2 rows, on a stream of its
    # own: batchnorm takes the covariance formula at 2 -> 8 (2 + 3 sets <
    # 8) and the direct one at 4 -> 4
    gs = RngState(5000 + trial).generator()
    for d_in, d in ((2, 8), (4, 4)):
        while True:
            xs, w_s, cs = (gs.uniform(-1, 1, size=s) for s in ((6, d_in), (d_in, d), (3, d)))
            gam, bet = gs.uniform(0.5, 1.5, size=d), gs.uniform(-0.5, 0.5, size=d)
            z = xs @ w_s + np.repeat(cs, 2, axis=0)
            zn = (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + BN_EPS)
            if np.min(np.abs(z)) > 1e-3 and np.min(np.abs(gam * zn + bet)) > 1e-3:
                break
        # the covariance formula's guard passes: no fallback to the direct one
        assert d_in + 3 >= d or tensor_mod._input_statistics(xs, w_s, cs)[-1]
        wps = _weighted(gs, (6, d))
        operands = [xs, w_s, gam, bet, cs]

        def per_set_loss(t, k, fused, _operands=operands):
            x_, w_, g_, be_, b_ = [t if j == k else Tensor(a) for j, a in enumerate(_operands)]
            if fused == "affine":
                return wps(affine(x_, w_, b_, relu=True))
            return wps(batchnorm(x_, g_, be_, BatchNormState(d), w=w_, b=b_))

        for k, operand in enumerate(operands):
            for fused in ("affine", "batchnorm"):
                if fused == "affine" and k in (2, 3):
                    continue  # affine takes no gamma or beta
                worst = max(worst, _check(lambda t, _k=k, _f=fused: per_set_loss(t, _k, _f), operand))

    # 16 column-major sets of 3 rows, 16 wide, on a stream of their own:
    # enough (set, column) pairs that set_softmax halves the sets for
    # their maxima, with an odd level at 3 rows
    gm = RngState(6000 + trial).generator()
    assert 16 * 16 >= tensor_mod._HALVED_MIN_COLUMNS
    wsm = _weighted(gm, (48, 16))
    xm = np.asfortranarray(gm.uniform(-1, 1, size=(48, 16)))
    worst = max(worst, _check(lambda t: wsm(set_softmax(t, 3)), xm))

    assert worst < TOL, f"worst primitive gradient error {worst:.3e}"


def _taped_primitives() -> set[str]:
    """Public ``pinset.tensor`` functions that record a backward on the tape."""
    return {
        name
        for name, fn in vars(tensor_mod).items()
        if inspect.isfunction(fn)
        and fn.__module__ == tensor_mod.__name__
        and not name.startswith("_")
        and "_result(" in inspect.getsource(fn)
    }


def test_every_taped_primitive_is_gradchecked(monkeypatch):
    """Every primitive with an analytic backward is differentiated by
    ``finite_difference_gradient`` in one trial of the primitive checks:
    it is called on the very array the oracle perturbs."""
    probed = []  # the array finite_difference_gradient is perturbing, if any
    checked = set()
    module = globals()

    def wrap(name, op):
        def wrapper(*args, **kwargs):
            if probed:
                operands = list(args) + list(kwargs.values())
                operands += [t for a in operands if isinstance(a, list) for t in a]
                if any(isinstance(a, Tensor) and a.data is probed[-1] for a in operands):
                    checked.add(name)
            return op(*args, **kwargs)

        return wrapper

    primitives = _taped_primitives()
    for name in primitives:
        wrapper = wrap(name, getattr(tensor_mod, name))
        monkeypatch.setattr(tensor_mod, name, wrapper)
        if name in module:
            monkeypatch.setitem(module, name, wrapper)

    def oracle(f, x, h=1e-5, _fd=finite_difference_gradient):
        probed.append(x)
        try:
            return _fd(f, x, h)
        finally:
            probed.pop()

    monkeypatch.setitem(module, "finite_difference_gradient", oracle)
    test_primitive_gradients(0)
    assert primitives - checked == set(), "never gradchecked against finite differences"
    assert {"batchnorm", "affine", "matmul", "sum_product"} <= primitives


def test_batchnorm_gradients_with_near_constant_column():
    # a column of x @ w with std 1e-3 makes inv_std ~1000 and the
    # normalization nearly singular, where cancellation in the gradient
    # shows first
    gen = RngState(77).generator()
    x0 = gen.uniform(-1, 1, size=(64, 4))
    w0 = gen.uniform(-1, 1, size=(4, 5))
    w0[:, 2] *= 1e-3 / (x0 @ w0[:, 2]).std()
    gamma = gen.uniform(0.5, 1.5, size=5)
    beta = gen.uniform(-0.5, 0.5, size=5)
    weights = _weighted(gen, (64, 5))
    z = x0 @ w0
    preact = gamma * (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + BN_EPS) + beta
    assert np.min(np.abs(preact)) > 1e-3  # this draw is clear of the relu kink

    def bn_loss(x, g, b):
        return weights(batchnorm(x, g, b, BatchNormState(5), w=Tensor(w0)))

    # no check for w: a step of H along its scaled column moves that
    # column's std by about 1 %, so finite differences are off there; its
    # gradient x^T gz reads the same gz as the gradient of x
    assert _check(lambda t: bn_loss(t, Tensor(gamma), Tensor(beta)), x0) < TOL
    assert _check(lambda t: bn_loss(Tensor(x0), t, Tensor(beta)), gamma) < TOL
    assert _check(lambda t: bn_loss(Tensor(x0), Tensor(gamma), t), beta) < TOL


def _randomize_norm_states(states, gen) -> None:
    # stored statistics away from their (0, 1) start, so the fold matters
    for state in states:
        width = state.mean.shape[0]
        state.mean = gen.uniform(-0.5, 0.5, size=width)
        state.var = gen.uniform(0.2, 2.0, size=width)


def _randomize_for_eval(model, gen, also=()) -> dict:
    """Random running statistics, gamma and beta (and the parameters named
    in ``also``), so the eval fold matters; returns the parameters."""
    _randomize_norm_states(model.norm_states().values(), gen)
    params = model.parameters()
    for name, p in params.items():
        if name.endswith("bn_gamma"):
            p.data = gen.uniform(0.5, 1.5, size=p.data.shape)
        elif name.endswith("bn_beta") or name in also:
            p.data = gen.uniform(-0.5, 0.5, size=p.data.shape)
    return params


def _draw_clear_of_kinks(forward, draw, gen):
    """Redraw inputs until every relu pre-activation of the eval-mode
    forward is at least 10*H from the kink, where finite differences are
    meaningless."""
    for _ in range(64):
        inputs = draw(gen)
        preacts = relu_inputs(forward(inputs))
        if min((float(np.min(np.abs(a))) for a in preacts), default=np.inf) > 10 * H:
            return inputs
    raise RuntimeError("could not draw inputs clear of activation kinks")


def _check_parameters(params: dict, loss_of) -> None:
    grads = backward(loss_of(), list(params.values()))
    for name, p in params.items():
        # perturbs p.data in place and restores each entry exactly
        fd = finite_difference_gradient(lambda _: float(loss_of().data), p.data, h=H)
        err = relative_error(grads[p], fd)
        assert err < 1e-4, f"{name}: guarded relative error {err:.3e}"


@pytest.mark.parametrize("index", range(2))
def test_eval_mode_model_gradients(index):
    model = build_model(gradcheck_config(), RngState(92))
    gen = RngState(93).child(index).generator()
    params = _randomize_for_eval(model, gen)
    assert any(name.endswith("bn_gamma") for name in params)

    def draw(g):
        return g.uniform(-1.0, 1.0, size=(4, 12, 3)), g.integers(0, 4, size=4)

    sets, labels = _draw_clear_of_kinks(lambda inp: model.forward(inp[0], "eval"), draw, gen)
    _check_parameters(params, lambda: softmax_cross_entropy(model.forward(sets, "eval"), labels))


@pytest.mark.parametrize("dims", [(3, 4), (2, 3, 2)])
def test_eval_mode_order_n_gradients(dims):
    gen = RngState(94).generator()
    mlps = [
        Mlp(MlpSpec([3, 6, c], final_activation="softmax_set" if j == 0 else "none"), RngState(95).child(j))
        for j, c in enumerate(dims)
    ]
    params = {}
    for j, m in enumerate(mlps):
        _randomize_norm_states(m.norm_states().values(), gen)
        params.update(m.parameters(f"m{j}."))
    weights = Tensor(gen.uniform(-1.0, 1.0, size=dims))

    def forward(x):
        return aggregate_order_n(mlps, Tensor(x), "eval")

    x = _draw_clear_of_kinks(forward, lambda g: g.uniform(-1.0, 1.0, size=(10, 3)), gen)
    _check_parameters(params, lambda: sum_all(mul(forward(x), weights)))


def _broadcast_config() -> ModelConfig:
    # one broadcast block (batchnorm + relu) between two aggregations; the
    # gradcheck preset has no broadcast block
    def mlp(width):
        return MlpSpec([width, 5, 3], final_activation="softmax_set")

    return ModelConfig(
        input_width=3,
        class_count=3,
        aggregation=AggregationSpec(mlp(3), mlp(3), dropout_ratio=0.0),
        broadcasts=[4],
        aggregation2=AggregationSpec(mlp(4), mlp(4), dropout_ratio=0.0),
        head=MlpSpec([9, 6, 3]),
    )


def test_relu_walk_finds_every_relu_input():
    for cfg, count in ((gradcheck_config(), 3), (pixel_l_config(), 11)):
        model = build_model(cfg, RngState(3))
        gen = RngState(4).generator()
        sets = gen.uniform(-1, 1, size=(2, 32, cfg.input_width))
        preacts = relu_inputs(model.forward(sets, "train", gen))
        assert len(preacts) == count
    # only the two broadcast blocks emit 256-wide rows in pixel-l
    assert sum(a.shape == (64, 256) for a in preacts) == 2


def test_relu_walk_refuses_a_differentiated_graph():
    # backward drops every node's saved arrays, so the walk would find no
    # relu and accept any batch
    model = build_model(gradcheck_config(), RngState(3))
    gen = RngState(4).generator()
    logits = model.forward(gen.uniform(-1, 1, size=(2, 32, 3)), "train", gen)
    assert len(relu_inputs(logits)) == 3
    backward(softmax_cross_entropy(logits, np.array([0, 1])))
    with pytest.raises(RuntimeError, match="^this graph was already differentiated"):
        relu_inputs(logits)


def test_relu_walk_rebuilds_fused_preactivations():
    # fused w -> batchnorm -> relu MLP layers, then a broadcast block's
    # batchnorm with a per-set bias: 4 sets of 3 rows, one bias row each
    mlp = Mlp(MlpSpec([3, 8, 6, 5]), RngState(96))
    gen = RngState(97).generator()
    x = Tensor(gen.uniform(-1, 1, size=(12, 3)))
    w_x, per_set = Tensor(gen.uniform(-1, 1, size=(5, 7))), Tensor(gen.uniform(-1, 1, size=(4, 7)))
    gamma, beta = Tensor(gen.uniform(0.5, 1.5, size=7)), Tensor(gen.uniform(-0.5, 0.5, size=7))
    out = batchnorm(mlp.forward(x, "train"), gamma, beta, BatchNormState(7), w=w_x, b=per_set)
    got = {a.shape: a for a in relu_inputs(out)}

    def bn(z, g, b):
        return (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + BN_EPS) * g + b

    # the same layers unfused in plain numpy: linear map, batchnorm, relu
    want, h = {}, x.data
    for layer in mlp.layers:
        h = h @ layer.weight.data + layer.bias.data
        if layer.bn is not None:
            h = bn(h, layer.bn.gamma.data, layer.bn.beta.data)
            want[h.shape] = h
            h = np.maximum(h, 0.0)
    h = bn(h @ w_x.data + np.repeat(per_set.data, 3, axis=0), gamma.data, beta.data)
    want[h.shape] = h
    np.testing.assert_allclose(out.data, np.maximum(h, 0.0), rtol=1e-12, atol=0)
    assert sorted(got) == sorted(want) == [(12, 6), (12, 7), (12, 8)]
    for shape, a in want.items():
        np.testing.assert_allclose(got[shape], a, rtol=1e-12, atol=0, err_msg=str(shape))


@pytest.mark.parametrize("index", range(2))
def test_eval_mode_broadcast_model_gradients(index):
    # eval mode folds each broadcast block's statistics into W_x and the
    # per-set row before its one affine op
    model = build_model(_broadcast_config(), RngState(98))
    gen = RngState(99).child(index).generator()
    params = _randomize_for_eval(model, gen, also=("bc0.bias",))

    def draw(g):
        return g.uniform(-1.0, 1.0, size=(4, 12, 3)), g.integers(0, 3, size=4)

    sets, labels = _draw_clear_of_kinks(lambda inp: model.forward(inp[0], "eval"), draw, gen)
    _check_parameters(params, lambda: softmax_cross_entropy(model.forward(sets, "eval"), labels))


@pytest.mark.parametrize("index", range(2))
def test_broadcast_model_gradients(index):
    model = build_model(_broadcast_config(), RngState(90))
    params = model.parameters()
    assert {"bc0.w_x", "bc0.w_y", "bc0.bias", "bc0.bn_gamma", "bc0.bn_beta"} <= set(params)
    sets, labels, _, _ = _draw_gradcheck_batch(model, RngState(91), index, margin=10 * H)
    _check_parameters(params, lambda: softmax_cross_entropy(model.forward(sets, "train"), labels))


def _batch_0():
    """Verify's gradcheck model and its first batch, with the batch's
    features and the gradients of its loss."""
    root = RngState(0).child("gradcheck")
    model = build_model(gradcheck_config(), root.child("model"))
    sets, labels, feature, logits = _draw_gradcheck_batch(model, root, 0, margin=10 * H)
    grads = backward(softmax_cross_entropy(logits, labels), list(model.parameters().values()))
    return model, sets, labels, feature, grads


def test_gradcheck_runs_one_directional_probe_per_tensor_and_batch(monkeypatch):
    # 18 tensors x 10 batches, each one central difference along one
    # direction: a one-element array perturbed by +-h
    sizes = []
    oracle = verify.finite_difference_gradient

    def counting(f, x, h):
        sizes.append(x.size)
        return oracle(f, x, h=h)

    monkeypatch.setattr(verify, "finite_difference_gradient", counting)
    verify.run_gradcheck(0)
    assert sizes == [1] * 180


def test_gradcheck_runs_the_features_once_per_attempt_and_non_head_loss(monkeypatch):
    # each drawn batch's taped forward gives the head probes their
    # features; only the 12 non-head tensors' two losses rerun them
    calls = {"features": 0, "attempts": 0}
    features, relus = Model.features, verify.relu_inputs

    def counting_features(self, *args, **kwargs):
        calls["features"] += 1
        return features(self, *args, **kwargs)

    def counting_attempts(out):
        calls["attempts"] += 1
        return relus(out)

    monkeypatch.setattr(Model, "features", counting_features)
    monkeypatch.setattr(verify, "relu_inputs", counting_attempts)
    assert verify.run_gradcheck(0).passed
    params = build_model(gradcheck_config(), RngState(0)).parameters()
    non_head = sum(not name.startswith("head.") for name in params)
    assert non_head == 12 and calls["attempts"] >= 10
    assert calls["features"] == calls["attempts"] + 2 * non_head * 10


def test_gradcheck_puts_every_parameter_array_back(monkeypatch):
    # each probe binds its parameter's .data to a moved copy for one
    # forward; afterwards the parameter holds its own array, bytes unchanged
    recorded = {}
    build = verify.build_model

    def recording(config, rng):
        model = build(config, rng)
        recorded.update({name: (p, p.data, p.data.copy()) for name, p in model.parameters().items()})
        return model

    monkeypatch.setattr(verify, "build_model", recording)
    verify.run_gradcheck(0)
    assert len(recorded) == 18
    for name, (p, own, before) in recorded.items():
        assert p.data is own, name
        assert own.tobytes() == before.tobytes(), name


def test_gradcheck_worst_values_at_seed_0():
    # the exact values at seed 0: a change in any op's last bits moves them
    fd, scaled = verify.run_gradcheck(0).properties
    assert (fd.trials, fd.failures, scaled.trials, scaled.failures) == (180, 0, 180, 0)
    assert fd.worst == 1.6761774468410096e-09
    assert scaled.worst == 0.002266230171206842


@pytest.mark.parametrize("seed", [1, 2, 3, 20220308])
def test_gradcheck_passes_at_other_seeds(seed):
    # the benchmark runs verify at each pair's own seed
    result = verify.run_gradcheck(seed)
    assert result.passed
    assert [p.trials for p in result.properties] == [180, 180]


def test_a_probe_puts_the_array_back_when_the_forward_raises(monkeypatch):
    model, sets, labels, feature, grads = _batch_0()
    params = list(model.parameters().values())
    own = [p.data for p in params]

    def failing(*args, **kwargs):
        raise RuntimeError("forward failed")

    monkeypatch.setattr(verify, "softmax_cross_entropy", failing)
    with pytest.raises(RuntimeError, match="forward failed"):
        verify._directional_probe(model, sets, labels, feature, grads, RngState(0), H)
    for p, data in zip(params, own):
        assert p.data is data


def test_head_probe_losses_equal_full_forward_losses(monkeypatch):
    # a head tensor's probe runs only the head on the batch's taped
    # features; along its direction each loss has the bits of a whole
    # forward's
    model, sets, labels, feature, grads = _batch_0()
    params = model.parameters()
    state = RngState(7)
    steps = (-1e-3, -H, 0.0, 0.25)
    losses = []

    def recording(f, x, h):
        losses.append([f(np.array([t])) for t in steps])
        return np.zeros(1)

    monkeypatch.setattr(verify, "finite_difference_gradient", recording)
    verify._directional_probe(model, sets, labels, feature, grads, state, H)
    head = [name for name in params if name.startswith("head.")]
    assert len(head) == 6 and len(losses) == len(params)
    for name, probed in zip(params, losses):
        if name not in head:
            continue
        p, own = params[name], params[name].data
        v = state.child(name).generator().standard_normal(own.shape)
        full = []
        try:
            for t in steps:
                p.data = own + t * v
                with no_grad():
                    full.append(float(softmax_cross_entropy(model.forward(sets, "train"), labels).data))
        finally:
            p.data = own
        assert probed == full, name


def _narrow_pixel_l_config() -> ModelConfig:
    # the shape of pixel-l at a width verify's gradcheck model has:
    # agg1, two broadcast blocks, agg2 and a head
    return ModelConfig(
        input_width=3,
        class_count=4,
        aggregation=_twin_aggregation([3, 8, 6], dropout_ratio=0.0),
        broadcasts=[8, 8],
        aggregation2=_twin_aggregation([8, 8, 6], dropout_ratio=0.0),
        head=MlpSpec([36, 12, 4]),
    )


def _broadcast_probe_ratios(seed: int, corrupt=None) -> dict:
    """The scaled ratio of every tensor of the narrow pixel-l model in each
    of 3 batches, name -> list; ``corrupt`` maps (name, gradient) to the
    gradient the probe sees."""
    root = RngState(seed).child("broadcast-probe")
    model = build_model(_narrow_pixel_l_config(), root.child("model"))
    params = model.parameters()
    ratios = {name: [] for name in params}
    for bi in range(3):
        sets, labels, feature, logits = _draw_gradcheck_batch(model, root, bi, margin=10 * H)
        grads = backward(softmax_cross_entropy(logits, labels), list(params.values()))
        if corrupt is not None:
            grads = {p: corrupt(name, grads[p]) for name, p in params.items()}
        rows = verify._directional_probe(model, sets, labels, feature, grads, root.child("direction", bi), H)
        for name, (_, ratio) in zip(params, rows):
            ratios[name].append(ratio)
    return ratios


def _largest_entry_scaled(g: np.ndarray) -> np.ndarray:
    g = g.copy()
    g.flat[np.argmax(np.abs(g))] *= 1 + 1e-3
    return g


@pytest.mark.parametrize("seed", [0, 4242])
def test_directional_probe_covers_a_broadcast_model(seed):
    ratios = _broadcast_probe_ratios(seed)
    assert {"bc0.w_x", "bc1.w_y", "agg2.mlp1.layer0.weight"} <= set(ratios)
    for name, values in ratios.items():
        assert max(values) <= 1.0, (name, values)


@pytest.mark.parametrize("target", ["bc0.w_x", "bc1.w_y", "agg2.mlp1.layer1.weight"])
def test_directional_probe_catches_one_wrong_entry_in_a_broadcast_model(target):
    # negative control: the largest entry of one tensor's gradient 0.1 %
    # off must fail the scaled bound in at least one of the batches
    ratios = _broadcast_probe_ratios(0, lambda name, g: _largest_entry_scaled(g) if name == target else g)
    assert max(ratios[target]) > 1.0, ratios[target]


def _corrupt_gradient(monkeypatch, target, corrupt) -> None:
    """Make ``verify.backward`` pass the gradient of ``target`` through
    ``corrupt``."""
    index = list(build_model(gradcheck_config(), RngState(0)).parameters()).index(target)
    exact = verify.backward

    def corrupted(loss, params):
        grads = exact(loss, params)
        grads[params[index]] = corrupt(grads[params[index]])
        return grads

    monkeypatch.setattr(verify, "backward", corrupted)


def _tensors_with_real_gradients() -> list[str]:
    """The gradcheck model's tensors whose largest gradient entry reaches
    1e-2 in one of verify's 10 batches at seed 0. The others are biases
    ahead of a batchnorm or a set softmax, whose gradient is zero in exact
    arithmetic."""
    root = RngState(0).child("gradcheck")
    model = build_model(gradcheck_config(), root.child("model"))
    params = model.parameters()
    largest = dict.fromkeys(params, 0.0)
    for bi in range(10):
        _, labels, _, logits = _draw_gradcheck_batch(model, root, bi, margin=10 * H)
        grads = backward(softmax_cross_entropy(logits, labels), list(params.values()))
        for name, p in params.items():
            largest[name] = max(largest[name], float(np.max(np.abs(grads[p]))))
    return [name for name, g in largest.items() if g >= 1e-2]


REAL_GRADIENTS = _tensors_with_real_gradients()


def test_only_zero_gradient_biases_lack_a_real_gradient():
    names = build_model(gradcheck_config(), RngState(0)).parameters()
    assert len(names) - len(REAL_GRADIENTS) == 5
    assert all(name.endswith("bias") for name in set(names) - set(REAL_GRADIENTS))


@pytest.mark.parametrize(
    "corrupt",
    [lambda g: g * (1 + 1e-3), lambda g: _largest_entry_scaled(g)],
    ids=["whole", "one-entry"],
)
@pytest.mark.parametrize("target", REAL_GRADIENTS)
def test_gradcheck_catches_a_small_error_of_any_tensor(monkeypatch, target, corrupt):
    # negative control: one tensor's gradient, or its largest entry, 0.1 %
    # off must fail the scaled rule in at least one batch. One direction
    # can miss it where <g, v> cancels, so the run is judged, not a batch
    _corrupt_gradient(monkeypatch, target, corrupt)
    prop = verify.run_gradcheck(0).properties[1]
    assert prop.name == "parameter_gradients_match_fd_scaled"
    assert prop.failures >= 1


@pytest.mark.parametrize(
    "target", ["head.layer0.weight", "agg1.mlp1.layer0.weight", "agg1.mlp2.layer0.weight"]
)
def test_gradcheck_suite_catches_one_wrong_gradient(monkeypatch, target):
    # negative control: one tensor's analytic gradient 1 % off must fail
    # the guarded rule in every batch whose <g, v> reaches 2e-2. Below
    # about 1e-2 the guarded error of a 1 % scale, 1e-2 * |<g, v>|, slips
    # under 1e-4; at seed 0 that happens in one batch for each agg1 tensor
    _corrupt_gradient(monkeypatch, target, lambda g: g * (1 + 1e-2))
    along = []
    probe = verify._directional_probe

    def recording(model, sets, labels, feature, gradients, state, h):
        p = model.parameters()[target]
        v = state.child(target).generator().standard_normal(p.data.shape)
        along.append(abs(float((gradients[p] * v).sum())))
        return probe(model, sets, labels, feature, gradients, state, h)

    monkeypatch.setattr(verify, "_directional_probe", recording)
    prop = verify.run_gradcheck(0).properties[0]
    assert prop.name == "parameter_gradients_match_fd"
    assert len(along) == 10
    assert prop.trials == 180 and prop.failures >= max(1, sum(a >= 2e-2 for a in along))


@pytest.mark.parametrize(
    "target, corrupt",
    [
        ("head.layer0.weight", lambda g: g * (1 + 1e-3)),
        ("agg1.mlp1.layer0.weight", lambda g: g * (1 + 1e-3)),
        # a zero gradient (a bias in front of train-mode batchnorm) leaking
        ("agg1.mlp1.layer0.bias", lambda g: g + 1e-6),
    ],
    ids=["head-scale", "agg-scale", "zero-bias-leak"],
)
def test_scaled_gradient_rule_catches_small_errors(monkeypatch, target, corrupt):
    # errors below the guarded 1e-4 rule's reach must fail the scaled rule
    # in every batch
    _corrupt_gradient(monkeypatch, target, corrupt)
    prop = verify.run_gradcheck(0).properties[1]
    assert prop.name == "parameter_gradients_match_fd_scaled"
    assert prop.trials == 180 and prop.failures == 10


def test_a_nan_gradient_fails_the_gradient_check(monkeypatch):
    # negative control: one NaN entry in one tensor's analytic gradient
    # fails every batch, and the worst value reports it
    def with_nan(g):
        g = g.copy()
        g.flat[0] = np.nan
        return g

    _corrupt_gradient(monkeypatch, "head.layer0.weight", with_nan)
    for prop in verify.run_gradcheck(0).properties:
        assert prop.trials == 180 and prop.failures == 10, prop.name
        assert np.isnan(prop.worst), prop.name
        assert not prop.passed


@pytest.mark.parametrize("values", [[0.1, np.nan], [np.nan, 0.1], [np.nan]])
def test_a_nan_trial_fails_a_tolerance(values):
    prop = verify._within_tolerance("x", values, 1.0, "")
    assert prop.failures == 1 and not prop.passed
    assert np.isnan(prop.worst)
    assert prop.as_dict()["worst"] == "nan"
