"""Forward/backward correctness, checked against finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipesgd import net
from pipesgd.errors import ConfigError, InputError, ShapeError
from pipesgd.net import (
    Dataset,
    DenseLayerSpec,
    backward,
    backward_from_cache,
    batch_loss,
    dataset_loss,
    forward,
    init_model,
    load_csv_dataset,
    loss_mse,
    make_synthetic_dataset,
    save_csv_dataset,
    specs_from_dims,
    split_params,
)


def _numerical_gradient(specs, weights, x, t, eps=1e-6):
    """Central finite differences of the batch loss, layer by layer."""
    grads = []
    for l, flat in enumerate(weights):
        g = np.zeros_like(flat)
        for i in range(len(flat)):
            saved = flat[i]
            flat[i] = saved + eps
            out, _ = forward(specs, weights, x)
            hi = batch_loss(np.atleast_2d(out), np.atleast_2d(t))
            flat[i] = saved - eps
            out, _ = forward(specs, weights, x)
            lo = batch_loss(np.atleast_2d(out), np.atleast_2d(t))
            flat[i] = saved
            g[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def _matmul_backward(specs, weights, cache, t):
    """Per-layer flat gradients with every weight gradient taken as
    ``np.matmul(d_z.T, a_in)``, whatever the batch size."""
    d_a = (cache[-1] - t) / (specs[-1].out_dim * cache[0].shape[0])
    grads = [None] * len(specs)
    for l in range(len(specs) - 1, -1, -1):
        spec = specs[l]
        a_in, a_out = cache[l], cache[l + 1]
        d_z = d_a * (1.0 - a_out * a_out) if spec.activation == "tanh" else d_a
        w, _ = split_params(spec, weights[l])
        grads[l] = np.concatenate([np.matmul(d_z.T, a_in).ravel(), np.sum(d_z, axis=0)])
        d_a = d_z @ w
    return grads


def _signed_zeros(values, seed):
    """``values`` with about a quarter of its entries +0.0 and a quarter -0.0."""
    pick = np.random.default_rng(seed).random(values.shape)
    return np.where(pick < 0.25, 0.0, np.where(pick < 0.5, -0.0, values))


class TestSpecs:
    def test_param_count(self):
        assert DenseLayerSpec(3, 5).param_count == 3 * 5 + 5

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            DenseLayerSpec(0, 5)
        with pytest.raises(ConfigError):
            DenseLayerSpec(3, 5, activation="relu")

    def test_specs_from_dims_activations(self):
        specs = specs_from_dims([4, 8, 8, 2])
        assert [s.activation for s in specs] == ["tanh", "tanh", "identity"]
        assert [(s.in_dim, s.out_dim) for s in specs] == [(4, 8), (8, 8), (8, 2)]

    def test_specs_from_dims_needs_two(self):
        with pytest.raises(ConfigError):
            specs_from_dims([4])

    def test_split_params_views_alias_buffer(self):
        spec = DenseLayerSpec(3, 2)
        flat = np.arange(spec.param_count, dtype=np.float64)
        w, b = split_params(spec, flat)
        assert w.shape == (2, 3)
        assert b.shape == (2,)
        w[0, 0] = 99.0
        assert flat[0] == 99.0

    def test_split_params_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            split_params(DenseLayerSpec(3, 2), np.zeros(5))


class TestForward:
    def test_identity_network_by_hand(self):
        """One identity layer is just W @ x + b; verify with explicit numbers."""
        spec = DenseLayerSpec(2, 2, activation="identity")
        flat = np.array([1.0, 2.0, 3.0, 4.0, 0.5, -0.5])
        out, cache = forward([spec], [flat], np.array([1.0, 1.0]))
        assert np.array_equal(out, [1 + 2 + 0.5, 3 + 4 - 0.5])
        assert len(cache) == 2

    def test_batch_and_single_agree(self):
        specs = specs_from_dims([3, 4, 2])
        model = init_model(7, specs)
        x = np.array([0.1, -0.2, 0.3])
        single, _ = forward(specs, model.layers, x)
        batched, _ = forward(specs, model.layers, x[None, :])
        assert np.array_equal(single, batched[0])

    def test_rejects_wrong_width(self):
        specs = specs_from_dims([3, 2])
        with pytest.raises(ShapeError):
            forward(specs, init_model(0, specs).layers, np.zeros(4))

    def test_rejects_spec_weight_mismatch(self):
        specs = specs_from_dims([3, 2])
        with pytest.raises(ShapeError):
            forward(specs, [], np.zeros(3))


class TestLoss:
    def test_loss_mse_by_hand(self):
        # ((1-0)^2 + (2-0)^2) / (2*2) = 5/4
        assert loss_mse(np.array([1.0, 2.0]), np.zeros(2)) == 1.25

    def test_batch_loss_is_mean_of_per_sample_loss(self):
        outputs = np.array([[1.0, 2.0], [3.0, 1.0]])
        targets = np.zeros((2, 2))
        per_sample = [loss_mse(outputs[i], targets[i]) for i in range(2)]
        assert batch_loss(outputs, targets) == pytest.approx(np.mean(per_sample), rel=1e-15)

    def test_shape_guards(self):
        with pytest.raises(ShapeError):
            loss_mse(np.zeros(2), np.zeros(3))
        with pytest.raises(ShapeError):
            batch_loss(np.zeros((2, 2)), np.zeros((3, 2)))


class TestBackward:
    @pytest.mark.parametrize(
        "dims,batch",
        [
            ((3, 2), 1),
            ((3, 4, 2), 1),
            ((3, 4, 2), 5),
            ((2, 6, 5, 3), 4),
            ((5, 5, 5, 5, 2), 3),
        ],
    )
    def test_matches_finite_differences(self, dims, batch):
        """Every layer's analytic gradient agrees with central differences."""
        specs = specs_from_dims(dims)
        model = init_model(17, specs)
        rng_x = net.seeded_fill(91, batch * dims[0], 1.0).reshape(batch, dims[0])
        rng_t = net.seeded_fill(92, batch * dims[-1], 1.0).reshape(batch, dims[-1])
        grads, _ = backward(specs, model.layers, rng_x, rng_t)
        numeric = _numerical_gradient(specs, model.layers, rng_x, rng_t)
        for l in range(len(specs)):
            scale = np.maximum(np.abs(numeric[l]), 1e-8)
            rel = np.max(np.abs(grads[l] - numeric[l]) / scale)
            assert rel < 1e-5, f"layer {l}: max relative error {rel}"

    def test_emission_order_is_output_layer_first(self):
        specs = specs_from_dims([3, 4, 4, 2])
        model = init_model(3, specs)
        seen = []
        backward(specs, model.layers, np.ones((2, 3)), np.zeros((2, 2)), lambda l, g: seen.append(l))
        assert seen == [2, 1, 0]

    def test_emitted_gradient_equals_returned(self):
        specs = specs_from_dims([3, 4, 2])
        model = init_model(3, specs)
        emitted = {}
        grads, _ = backward(
            specs,
            model.layers,
            np.ones((2, 3)),
            np.zeros((2, 2)),
            lambda l, g: emitted.__setitem__(l, g.copy()),
        )
        for l, g in enumerate(grads):
            assert np.array_equal(emitted[l], g)

    def test_gradient_is_batch_mean(self):
        """Twice the same sample gives the same gradient as the sample alone."""
        specs = specs_from_dims([3, 4, 2])
        model = init_model(5, specs)
        x = np.array([[0.3, -0.1, 0.8]])
        t = np.array([[0.5, -0.5]])
        one, _ = backward(specs, model.layers, x, t)
        two, _ = backward(specs, model.layers, np.repeat(x, 2, 0), np.repeat(t, 2, 0))
        for a, b in zip(one, two):
            assert np.allclose(a, b, rtol=0, atol=1e-16)

    def test_callback_may_overwrite_emitted_layer(self):
        """Clobbering an emitted layer's weights must not corrupt lower layers."""
        specs = specs_from_dims([3, 4, 2])
        model = init_model(5, specs)
        x, t = np.ones((2, 3)), np.zeros((2, 2))
        plain, _ = backward(specs, [v.copy() for v in model.layers], x, t)
        weights = [v.copy() for v in model.layers]

        def clobber(l, _g):
            weights[l][:] = 1e9

        hooked, _ = backward(specs, weights, x, t, clobber)
        for a, b in zip(plain, hooked):
            assert np.array_equal(a, b)

    def test_backward_from_cache_matches_backward(self):
        specs = specs_from_dims([3, 4, 2])
        model = init_model(5, specs)
        x, t = np.ones((2, 3)), np.zeros((2, 2))
        _, cache = forward(specs, model.layers, x)
        a, loss_a = backward_from_cache(specs, model.layers, cache, t)
        b, loss_b = backward(specs, model.layers, x, t)
        assert loss_a == loss_b
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 7), min_size=2, max_size=5),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_out_buffers_take_the_gradients_in_place(self, dims, batch, seed):
        """With ``out``, each gradient is computed into its buffer - views of
        one flat region, as the engine passes them - byte-equal to the
        allocating path, and ``on_layer`` receives the buffer itself."""
        specs = specs_from_dims(dims)
        model = init_model(seed, specs)
        x = net.seeded_fill(seed ^ 1, batch * dims[0], 1.0).reshape(batch, dims[0])
        t = net.seeded_fill(seed ^ 2, batch * dims[-1], 1.0).reshape(batch, dims[-1])
        _, cache = forward(specs, model.layers, x)
        want, want_loss = backward_from_cache(specs, model.layers, cache, t)

        bounds = np.cumsum([0] + [s.param_count for s in specs])
        flat = np.full(bounds[-1], np.nan)
        bufs = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        emitted = []
        got, loss = backward_from_cache(
            specs, model.layers, cache, t, lambda l, g: emitted.append((l, g)), out=bufs
        )
        assert loss == want_loss
        assert [l for l, _ in emitted] == list(reversed(range(len(specs))))
        assert all(g is bufs[l] for l, g in emitted)
        assert all(a is b for a, b in zip(got, bufs))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(bufs, want))

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 7), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=[256, 256, 2], seed=3)
    def test_one_row_batch_matches_matmul_byte_for_byte(self, dims, seed):
        """A one-row batch's gradients equal the ``np.matmul(d_z.T, a_in)``
        formulation byte for byte, with +0.0 and -0.0 in the inputs and
        targets: ``np.multiply(d_z.T, a_in)`` would keep the -0.0
        products that matmul turns into +0.0."""
        specs = specs_from_dims(dims)
        model = init_model(seed, specs)
        x = _signed_zeros(net.seeded_fill(seed ^ 1, dims[0], 1.0).reshape(1, dims[0]), seed)
        t = _signed_zeros(net.seeded_fill(seed ^ 2, dims[-1], 1.0).reshape(1, dims[-1]), seed ^ 3)
        _, cache = forward(specs, model.layers, x)
        got, _ = backward_from_cache(specs, model.layers, cache, t)
        want = _matmul_backward(specs, model.layers, cache, t)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    def test_out_buffers_must_match_the_layers(self):
        specs = specs_from_dims([3, 4, 2])
        model = init_model(5, specs)
        x, t = np.ones((2, 3)), np.zeros((2, 2))
        _, cache = forward(specs, model.layers, x)
        with pytest.raises(ShapeError):
            backward_from_cache(specs, model.layers, cache, t, out=[np.empty(16)])
        with pytest.raises(ShapeError):
            backward_from_cache(specs, model.layers, cache, t, out=[np.empty(16), np.empty(9)])

    def test_rejects_empty_batch(self):
        specs = specs_from_dims([3, 2])
        with pytest.raises(InputError):
            backward(specs, init_model(0, specs).layers, np.zeros((0, 3)), np.zeros((0, 2)))


class TestInitModel:
    def test_deterministic_and_layer_distinct(self):
        specs = specs_from_dims([4, 4, 4])
        a = init_model(11, specs)
        b = init_model(11, specs)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la, lb)
        assert not np.array_equal(a.layers[0], a.layers[1])

    def test_scale_shrinks_with_input_width(self):
        specs = specs_from_dims([10_000, 4, 2])
        m = init_model(1, specs)
        assert np.max(np.abs(m.layers[0])) <= 1.0 / np.sqrt(10_000)


class TestDataset:
    def test_synthetic_is_deterministic(self):
        specs = specs_from_dims([4, 3])
        a = make_synthetic_dataset(5, 32, specs)
        b = make_synthetic_dataset(5, 32, specs)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert len(a) == 32

    def test_targets_come_from_same_architecture(self):
        """Teacher targets are reproducible from the derived teacher weights."""
        specs = specs_from_dims([4, 6, 3])
        ds = make_synthetic_dataset(5, 8, specs)
        assert ds.targets.shape == (8, 3)
        assert np.all(np.isfinite(ds.targets))

    def test_take_gathers_rows(self):
        ds = Dataset(np.arange(12.0).reshape(6, 2), np.arange(6.0)[:, None])
        x, t = ds.take(np.array([3, 0, 3]))
        assert np.array_equal(x, [[6.0, 7.0], [0.0, 1.0], [6.0, 7.0]])
        assert np.array_equal(t.ravel(), [3.0, 0.0, 3.0])

    def test_rejects_ragged(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((3, 2)), np.zeros((4, 1)))

    def test_csv_round_trip(self, tmp_path):
        specs = specs_from_dims([3, 2])
        ds = make_synthetic_dataset(9, 10, specs)
        path = str(tmp_path / "data.csv")
        save_csv_dataset(ds, path)
        back = load_csv_dataset(path, 3, 2)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.targets, ds.targets)

    def test_csv_rejects_bad_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(InputError, match="expected 5 columns"):
            load_csv_dataset(str(path), 3, 2)

    def test_csv_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,x\n")
        with pytest.raises(InputError, match="bad.csv:1"):
            load_csv_dataset(str(path), 2, 1)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_csv_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.3,0.4,0.5\n0.1,0.2,{bad}\n")
        with pytest.raises(InputError, match="bad.csv:2: values must be finite"):
            load_csv_dataset(str(path), 2, 1)

    def test_dataset_loss_is_finite_and_positive(self):
        specs = specs_from_dims([4, 3])
        ds = make_synthetic_dataset(5, 16, specs)
        loss = dataset_loss(specs, init_model(99, specs).layers, ds)
        assert loss > 0.0
        assert np.isfinite(loss)
