"""Finite-difference checks for every differentiable primitive.

The analytic gradient of a scalar loss through each op is compared with
central finite differences (h = 1e-5) on random inputs in [-1, 1], 100
seeded trials per primitive, guarded relative error below 1e-6. The relu
exists only fused into ``affine`` and ``batchnorm``; their trials redraw
inputs until every pre-activation is a safe margin away from the kink,
where the derivative does not exist and finite differences are
meaningless.

A small model with a broadcast block is checked end to end the way the
gradcheck verify suite checks its preset, which has no broadcast block.
Eval mode, where each batchnorm is folded into its layer's weights, is
checked end to end on the gradcheck preset, on the broadcast model and on
the order-n aggregation, all with non-trivial running statistics.
"""

import inspect

import numpy as np
import pytest

from pinset import tensor as tensor_mod
from pinset.blocks import Mlp, MlpSpec, aggregate_order_n
from pinset.models import (
    AggregationSpec,
    ModelConfig,
    build_model,
    gradcheck_config,
    pixel_l_config,
)
from pinset.rng import RngState
from pinset.tensor import (
    BN_EPS,
    BatchNormState,
    Tensor,
    _reachable,
    add,
    affine,
    backward,
    batchnorm,
    finite_difference_gradient,
    matmul,
    mul,
    pair_aggregate,
    reshape,
    set_softmax,
    softmax_cross_entropy,
    squashing,
    sum_all,
    sum_product,
    tile_rows,
    transpose,
)
from pinset.verify import _draw_gradcheck_batch, _relu_inputs, relative_error

TRIALS = 100
H = 1e-5
TOL = 1e-6


def _check(build_loss, x0: np.ndarray) -> float:
    """Max guarded relative error between analytic and FD gradients of the
    scalar loss built from a single input tensor."""
    t = Tensor(x0.copy(), requires_grad=True)
    grads = backward(build_loss(t))
    analytic = grads[t]

    def f(arr):
        return float(build_loss(Tensor(arr)).data)

    fd = finite_difference_gradient(f, x0.copy(), h=H)
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
    worst = max(worst, _check(lambda t: ws(set_softmax(t)), gen.uniform(-1, 1, size=(6, 3))))
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
    wtr = _weighted(gen, (3, 4))
    worst = max(worst, _check(lambda t: wtr(transpose(t)), gen.uniform(-1, 1, size=(4, 3))))
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
    for use_relu in (False, True):
        for use_bias in (False, True):
            # redraw until every pre-activation is clear of the relu kink
            while True:
                xb, wb = gb.uniform(-1, 1, size=(6, 3)), gb.uniform(-1, 1, size=(3, 4))
                gam, bet, bb = gb.uniform(0.5, 1.5, size=4), gb.uniform(-0.5, 0.5, size=4), gb.uniform(-1, 1, size=4)
                z = xb @ wb
                z = (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + BN_EPS)
                if not use_relu or np.min(np.abs(gam * z + bet)) > 1e-3:
                    break
            wbn = _weighted(gb, (6, 4))
            operands = [xb, wb, gam, bet] + ([bb] if use_bias else [])

            def fused_loss(t, k, _relu=use_relu, _operands=operands):
                x_, w_, g_, be_, *b_ = [t if j == k else Tensor(a) for j, a in enumerate(_operands)]
                state = BatchNormState(4)
                return wbn(batchnorm(x_, g_, be_, state, w=w_, b=b_[0] if b_ else None, relu=_relu))

            for k, operand in enumerate(operands):
                worst = max(worst, _check(lambda t, _k=k: fused_loss(t, _k), operand))

    # a row-aligned (rows, d) bias, as the broadcast blocks pass it, on a
    # stream of its own
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
        return wrb(batchnorm(x_, g_, be_, BatchNormState(4), w=w_, b=b_, relu=True))

    for k, operand in enumerate(operands):
        worst = max(worst, _check(lambda t, _k=k: row_bn_loss(t, _k), operand))

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


@pytest.mark.parametrize("use_relu", [False, True])
def test_batchnorm_gradients_with_near_constant_column(use_relu):
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
        return weights(batchnorm(x, g, b, BatchNormState(5), w=Tensor(w0), relu=use_relu))

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


def _affine_preacts(out: Tensor) -> list[np.ndarray]:
    """Pre-activations of every ``affine`` node behind ``out``, rebuilt
    from its operands: eval mode fuses the relu into the op."""
    preacts = []
    for node in _reachable(out):
        if node._backward is not None and node._backward.__qualname__ == "affine.<locals>.bwd":
            x, w, *b = (p.data for p in node._parents)
            preacts.append(x @ w + (b[0] if b else 0.0))
    return preacts


def _draw_clear_of_kinks(forward, draw, gen):
    """Redraw inputs until every eval-mode pre-activation is at least
    10*H from the relu kink, where finite differences are meaningless."""
    for _ in range(64):
        inputs = draw(gen)
        if min(float(np.min(np.abs(a))) for a in _affine_preacts(forward(inputs))) > 10 * H:
            return inputs
    raise RuntimeError("could not draw inputs clear of activation kinks")


def _check_parameters(params: dict, loss_of) -> None:
    grads = backward(loss_of(), list(params.values()))
    for name, p in params.items():
        original = p.data

        def probe(arr, _p=p):
            _p.data = arr
            return float(loss_of().data)

        fd = finite_difference_gradient(probe, original.copy(), h=H)
        p.data = original
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
        task="synthetic",
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
        preacts = _relu_inputs(model.forward(sets, "train", gen))
        assert len(preacts) == count
    # only the two broadcast blocks emit 256-wide rows in pixel-l
    assert sum(a.shape == (64, 256) for a in preacts) == 2


def test_relu_walk_rebuilds_fused_preactivations():
    # fused w -> batchnorm -> relu MLP layers, then a broadcast block's
    # batchnorm with a row-aligned bias: 4 sets of 3 rows, one tiled row each
    mlp = Mlp(MlpSpec([3, 8, 6, 5]), RngState(96))
    gen = RngState(97).generator()
    x = Tensor(gen.uniform(-1, 1, size=(12, 3)))
    w_x, per_set = Tensor(gen.uniform(-1, 1, size=(5, 7))), Tensor(gen.uniform(-1, 1, size=(4, 7)))
    gamma, beta = Tensor(gen.uniform(0.5, 1.5, size=7)), Tensor(gen.uniform(-0.5, 0.5, size=7))
    tiled = tile_rows(per_set, 3)
    out = batchnorm(mlp.forward(x, "train"), gamma, beta, BatchNormState(7), w=w_x, b=tiled, relu=True)
    got = {a.shape: a for a in _relu_inputs(out)}

    def bn(z, g, b):
        return (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + BN_EPS) * g + b

    # the same layers unfused in plain numpy: linear map, batchnorm, relu
    want, h = {}, x.data
    for i in range(mlp.n_layers):
        h = h @ mlp.weights[i].data + mlp.biases[i].data
        if mlp.bn_gamma[i] is not None:
            h = bn(h, mlp.bn_gamma[i].data, mlp.bn_beta[i].data)
            want[h.shape] = h
            h = np.maximum(h, 0.0)
    h = bn(h @ w_x.data + tiled.data, gamma.data, beta.data)
    want[h.shape] = h
    np.testing.assert_allclose(out.data, np.maximum(h, 0.0), rtol=1e-12, atol=0)
    assert sorted(got) == sorted(want) == [(12, 6), (12, 7), (12, 8)]
    for shape, a in want.items():
        np.testing.assert_allclose(got[shape], a, rtol=1e-12, atol=0, err_msg=str(shape))


@pytest.mark.parametrize("index", range(2))
def test_eval_mode_broadcast_model_gradients(index):
    # eval mode folds each broadcast block's statistics into W_x^T and the
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
    sets, labels = _draw_gradcheck_batch(model, RngState(91), index, margin=10 * H)
    _check_parameters(params, lambda: softmax_cross_entropy(model.forward(sets, "train"), labels))
