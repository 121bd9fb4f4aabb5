"""Engine pieces testable without a transport: config, layout, update math,
batch streams, the tree fold, the single-process reference, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipesgd import net
from pipesgd.buffers import Model
from pipesgd.engine import (
    SegmentLayout,
    TrainConfig,
    batch_indices,
    load_model,
    load_model_bytes,
    master_update,
    save_model,
    sequential_sgd,
    serialize_model,
    tree_reduce,
)
from pipesgd.engine.sgd import apply_update, shard_bounds
from pipesgd.errors import ConfigError, FormatError, ShapeError
from pipesgd.topology import build_reduction_tree


class TestTrainConfig:
    def test_defaults_validate(self):
        cfg = TrainConfig()
        cfg.validate()
        assert cfg.batch_size % cfg.world_size == 0

    def test_replace_returns_new_validated_config(self):
        cfg = TrainConfig()
        other = cfg.replace(world_size=8, batch_size=64)
        assert other.world_size == 8
        assert cfg.world_size == 4

    @pytest.mark.parametrize(
        "overrides",
        [
            {"layer_dims": (5,)},
            {"layer_dims": (5, 0, 3)},
            {"world_size": 0},
            {"iterations": 0},
            {"batch_size": 0},
            {"world_size": 3, "batch_size": 16},  # not divisible
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"pattern": "ring"},
            {"compute_inflation_ns": -1},
            {"dataset_size": 0},
            {"finalize_timeout_s": 0.0},
            {"seed": -1},
            {"seed": 1 << 64},
            {"iterations": 2**31 - 1},  # tcp barrier sequence would overflow u32
            {"input_scale": float("nan")},
            {"input_scale": float("inf")},
            {"input_scale": float("-inf")},
            {"iterations": 2.5},
            {"seed": 1.5},
            {"world_size": 2.0},
            {"compute_inflation_ns": 1e3},
            {"batch_size": "8"},
            {"dataset_size": True},
            {"layer_dims": (4.5, 3)},
            {"layer_dims": (4, "3")},
            {"epsilon": float("inf")},
            {"finalize_timeout_s": float("inf")},
            {"epsilon": True},
            {"epsilon": "0.1"},
            {"input_scale": False},
            {"input_scale": "1.0"},
            {"finalize_timeout_s": True},
            {"finalize_timeout_s": None},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            TrainConfig(**overrides)

    def test_specs_chain_dimensions(self):
        cfg = TrainConfig(layer_dims=(7, 5, 3))
        specs = cfg.specs()
        assert [(s.in_dim, s.out_dim) for s in specs] == [(7, 5), (5, 3)]


class TestSegmentLayout:
    def test_offsets_and_sizes(self):
        lay = SegmentLayout([10, 4, 6])
        assert lay.unit_bytes == [80, 32, 48]
        assert lay.unit_offsets == [0, 80, 112]
        assert lay.total_bytes == 160
        assert lay.size(2) == 320
        assert lay.offset(0, 2) == 112
        assert lay.offset(1, 0) == 160

    @pytest.mark.parametrize("slots", [1, 2, 3, 4])
    @pytest.mark.parametrize("counts", [[3], [10, 4], [100, 1, 50], [7, 7, 7, 7]])
    def test_receive_slots_and_ids(self, slots, counts):
        """A segment of S slots is S whole models: every (slot, unit) byte
        span is disjoint and inside size(S) == S * model bytes; the ids
        fill [1, 1 + S*U) with id 0 reserved, and each decodes back to its
        (slot, unit)."""
        lay = SegmentLayout(counts)
        keys = [(slot, u) for slot in range(slots) for u in range(lay.num_units)]
        spans = sorted(
            (lay.offset(*key), lay.offset(*key) + lay.unit_bytes[key[1]]) for key in keys
        )
        for (_, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0
        assert spans[0][0] == 0
        assert spans[-1][1] == lay.size(slots) == slots * lay.total_bytes
        ids = {lay.notif_id(*key): key for key in keys}
        assert lay.notif_count(slots) == 1 + slots * lay.num_units
        assert sorted(ids) == list(range(1, lay.notif_count(slots)))
        assert all(lay.decode(nid) == key for nid, key in ids.items())

    @pytest.mark.parametrize("world_size", [1, 2, 3, 5])
    def test_exchange_ranges_follow_the_slots(self, world_size):
        """The exchange ranges hold the replicated units only, one range
        per iteration parity and sender, after the receive slots: every
        (parity, sender, unit) span is disjoint from the others and from
        the slots, and they end the receive segment."""
        lay = SegmentLayout([10, 4, 6, 3], 3, [True, False, True, False], world_size)
        assert lay.exchange_bytes == 8 * (10 + 6)
        assert lay.recv_bytes == lay.size(3) + 2 * world_size * lay.exchange_bytes
        spans = sorted(
            (lay.exchange_offset(q, s, u), lay.exchange_offset(q, s, u) + lay.unit_bytes[u])
            for q in (0, 1) for s in range(world_size) for u in (0, 2)
        )
        assert spans[0][0] == lay.size(3)
        for (_, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 == b0
        assert spans[-1][1] == lay.recv_bytes

    def test_no_exchange_ranges_without_replicated_units(self):
        lay = SegmentLayout([10, 4], 2, [False, False], 4)
        assert lay.recv_bytes == lay.size(2)

    @pytest.mark.parametrize("bad", [[], [0], [5, -1]])
    def test_rejects_bad_layer_counts(self, bad):
        with pytest.raises(ConfigError):
            SegmentLayout(bad)


class TestMasterUpdate:
    def test_golden_values_exact(self):
        w = np.array([1.0, 0.0, -1.0])
        g = np.array([0.2, 0.0, -0.2])
        out = master_update(w, g, 0.5)
        assert out.tolist() == [0.9, 0.0, -0.9]

    def test_inputs_untouched(self):
        w = np.ones(4)
        g = np.ones(4)
        master_update(w, g, 0.1)
        assert w.tolist() == [1.0] * 4
        assert g.tolist() == [1.0] * 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            master_update(np.ones(3), np.ones(4), 0.1)
        with pytest.raises(ShapeError):
            apply_update(np.ones(3), np.ones(4), 0.1)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
        st.floats(1e-6, 10.0),
    )
    def test_matches_direct_expression(self, values, eps):
        w = np.array(values)
        g = np.array(values[::-1])
        assert np.array_equal(master_update(w, g, eps), w - eps * g)

    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20),
        st.floats(1e-6, 10.0),
    )
    def test_apply_update_is_master_update_in_place(self, values, eps):
        """The in-place rule gives master_update's bytes and leaves
        epsilon * g in the consumed gradient."""
        w = np.array(values)
        g = np.array(values[::-1])
        want = master_update(w, g, eps)
        scaled = eps * g
        apply_update(w, g, eps)
        assert w.tobytes() == want.tobytes()
        assert g.tobytes() == scaled.tobytes()


class TestBatchIndices:
    def test_deterministic_and_in_range(self):
        a = batch_indices(42, 7, 64, 100)
        b = batch_indices(42, 7, 64, 100)
        assert np.array_equal(a, b)
        assert a.dtype == np.int64
        assert a.min() >= 0 and a.max() < 100

    def test_iterations_give_different_batches(self):
        a = batch_indices(42, 0, 64, 1000)
        b = batch_indices(42, 1, 64, 1000)
        assert not np.array_equal(a, b)

    def test_seeds_give_different_batches(self):
        assert not np.array_equal(
            batch_indices(1, 0, 64, 1000), batch_indices(2, 0, 64, 1000)
        )

    def test_singleton_dataset(self):
        assert batch_indices(9, 3, 32, 1).tolist() == [0] * 32

    def test_draws_with_replacement(self):
        # 256 draws from 4 values must repeat
        idx = batch_indices(5, 0, 256, 4)
        assert len(np.unique(idx)) <= 4


class TestShardBounds:
    @pytest.mark.parametrize("world", [1, 2, 4, 8])
    def test_partitions_batch(self, world):
        batch = 64
        spans = [shard_bounds(batch, world, r) for r in range(world)]
        assert spans[0][0] == 0
        assert spans[-1][1] == batch
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo


class TestTreeReduce:
    def test_matches_plain_sum(self):
        rng = np.random.default_rng(3)
        partials = [[rng.normal(size=5), rng.normal(size=3)] for _ in range(8)]
        tree = build_reduction_tree(8)
        out = tree_reduce(partials, tree)
        for l in range(2):
            total = sum(p[l] for p in partials)
            assert np.allclose(out[l], total, rtol=1e-12)

    def test_fold_order_is_children_ascending(self):
        """Replaying the documented fold order reproduces the result bit for bit."""
        rng = np.random.default_rng(4)
        partials = [[rng.normal(size=7)] for _ in range(4)]
        tree = build_reduction_tree(4)
        out = tree_reduce(partials, tree)
        # tree for 4 ranks: children(0)=[1,2], children(2)=[3]
        acc2 = partials[2][0].copy()
        acc2 += partials[3][0]
        acc0 = partials[0][0].copy()
        acc0 += partials[1][0]
        acc0 += acc2
        assert out[0].tobytes() == acc0.tobytes()

    def test_inputs_not_modified(self):
        partials = [[np.ones(3)] for _ in range(2)]
        tree_reduce(partials, build_reduction_tree(2))
        assert partials[0][0].tolist() == [1.0, 1.0, 1.0]

    def test_wrong_rank_count_rejected(self):
        with pytest.raises(ShapeError):
            tree_reduce([[np.ones(2)]], build_reduction_tree(2))


class TestSequentialSgd:
    def _setup(self, **overrides):
        cfg = TrainConfig(
            layer_dims=(6, 8, 4), world_size=4, iterations=3, batch_size=16,
            dataset_size=32, seed=11,
        ).replace(**overrides)
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        return cfg, ds

    def test_deterministic(self):
        cfg, ds = self._setup()
        m1 = sequential_sgd(cfg, ds)
        m2 = sequential_sgd(cfg, ds)
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(m1.layers, m2.layers)
        )

    def test_single_rank_matches_hand_rolled_loop(self):
        cfg, ds = self._setup(world_size=1)
        specs = cfg.specs()
        model = net.init_model(cfg.seed, specs)
        for k in range(cfg.iterations):
            idx = batch_indices(cfg.seed, k, cfg.batch_size, len(ds))
            x, t = ds.take(idx)
            grads, _ = net.backward(specs, model.layers, x, t)
            model = Model(
                layers=[master_update(w, g, cfg.epsilon) for w, g in zip(model.layers, grads)],
                iteration=k + 1,
            )
        out = sequential_sgd(cfg, ds)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(out.layers, model.layers))

    def test_callback_sees_every_iteration(self):
        cfg, ds = self._setup()
        seen = []
        sequential_sgd(cfg, ds, on_iteration=lambda k, m, loss: seen.append((k, loss)))
        assert [k for k, _ in seen] == [0, 1, 2]
        assert all(np.isfinite(loss) for _, loss in seen)

    def test_iteration_counter_advances(self):
        cfg, ds = self._setup()
        assert sequential_sgd(cfg, ds).iteration == cfg.iterations


class TestCheckpoint:
    def _layers(self):
        rng = np.random.default_rng(8)
        return [rng.normal(size=12), rng.normal(size=5), rng.normal(size=30)]

    def test_round_trip_bit_exact(self):
        layers = self._layers()
        model = load_model_bytes(serialize_model(layers))
        assert len(model.layers) == 3
        for a, b in zip(layers, model.layers):
            assert a.tobytes() == b.tobytes()

    def test_file_round_trip(self, tmp_path):
        layers = self._layers()
        path = str(tmp_path / "model.bin")
        save_model(layers, path)
        model = load_model(path)
        for a, b in zip(layers, model.layers):
            assert a.tobytes() == b.tobytes()

    def test_bad_magic_rejected(self):
        blob = serialize_model(self._layers())
        with pytest.raises(FormatError):
            load_model_bytes(b"XXXX" + blob[4:])

    def test_truncation_rejected(self):
        blob = serialize_model(self._layers())
        with pytest.raises(FormatError):
            load_model_bytes(blob[:-3])

    def test_trailing_garbage_rejected(self):
        blob = serialize_model(self._layers())
        with pytest.raises(FormatError):
            load_model_bytes(blob + b"\x00")

    def test_out_of_order_layers_rejected(self):
        blob = bytearray(serialize_model([np.ones(2), np.ones(2)]))
        # swap the two layer index fields
        import struct

        first = len(b"PSGD1")
        second = first + 4 + 8 + 16
        blob[first:first + 4] = struct.pack("<I", 1)
        blob[second:second + 4] = struct.pack("<I", 0)
        with pytest.raises(FormatError):
            load_model_bytes(bytes(blob))

    @settings(max_examples=25)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
    def test_round_trip_any_shape(self, sizes, seed):
        rng = np.random.default_rng(seed)
        layers = [rng.normal(size=n) for n in sizes]
        model = load_model_bytes(serialize_model(layers))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(layers, model.layers))
