import numpy as np
import pytest

from conftest import tiny_arch
from moblurf import autodiff as ad
from moblurf.fields import (ENCODE_BLOCK, FieldConfig, Mlp, SceneModel, encode_position,
                            load_checkpoint, save_checkpoint, CheckpointError,
                            CHECKPOINT_MAGIC)


def tiny_config(**kw):
    return FieldConfig(**tiny_arch(n_frames=5, **kw))


def tiny_model(seed=0, **kw):
    return SceneModel(tiny_config(**kw), np.random.default_rng(seed))


def encode_per_frequency(x, num_freqs):
    """Reference encoding: one scale, sin and cos per frequency, in turn."""
    parts = [x]
    for k in range(num_freqs):
        scaled = x * x.dtype.type(np.pi * (2.0 ** k))
        parts += [np.sin(scaled), np.cos(scaled)]
    return np.concatenate(parts, axis=-1)


def encoded(model, x, d):
    """Positional encodings of points and directions, as rendering makes them,
    each point on a ray of its own."""
    cfg = model.config
    return encode_position(x, cfg.pos_freqs), encode_position(d, cfg.dir_freqs)


class TestEncoding:
    def test_dimension_3_plus_6l(self):
        x = np.zeros((4, 3))
        assert encode_position(x, 8).shape == (4, 51)
        assert encode_position(x, 2).shape == (4, 15)

    def test_zero_input_gives_zero_sin_unit_cos(self):
        out = encode_position(np.zeros((1, 3)), 4)[0]
        assert np.all(out[:3] == 0)
        # layout: [x, sin_k0, cos_k0, sin_k1, cos_k1, ...] in blocks of 3
        for k in range(4):
            block = out[3 + 6 * k: 3 + 6 * (k + 1)]
            assert np.all(block[:3] == 0.0)   # sin terms
            assert np.all(block[3:] == 1.0)   # cos terms

    def test_deterministic(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(encode_position(x, 6), encode_position(x, 6))

    @pytest.mark.parametrize("num_freqs", [1, 4, 8])
    def test_matches_per_frequency_reference_to_rounding(self, num_freqs):
        rng = np.random.default_rng(2)
        for scale in (3.0, 30.0):
            x = rng.normal(size=(1000, 3)) * scale
            out = encode_position(x, num_freqs)
            ref = encode_per_frequency(x, num_freqs)
            # x and the first octave are the reference's bits
            assert np.array_equal(out[:, :9], ref[:, :9])
            assert np.array_equal(encode_position(ad.Node(x), num_freqs).value, out)
            if np.finfo(np.longdouble).eps >= 1e-18:
                continue    # no wider type to take the exact value in
            # the recurrence's error doubles with each octave, as rounding
            # the argument 2^k pi x costs sin(2^k pi x) taken directly: both
            # stay within 2^k (1 + pi|x|) eps
            exact = encode_per_frequency(x.astype(np.longdouble), num_freqs)
            eps = np.finfo(np.float64).eps
            for k in range(num_freqs):
                cols = slice(3 + 6 * k, 9 + 6 * k)
                err = np.abs(out[:, cols] - exact[:, cols]).astype(np.float64)
                bound = 2.0 ** k * (1 + np.pi * np.abs(x)) * eps
                assert np.all(err <= np.tile(bound, 2)), (scale, k)


def encode_octave_doubling(x, num_freqs, g):
    """The encoding and its input gradient for output gradient ``g``, one
    octave at a time over all rows, row-major: what the blocked,
    feature-major encoding must give bit for bit."""
    rows = x.reshape(-1, x.shape[-1])
    scaled = rows * np.pi
    s, c = np.sin(scaled), np.cos(scaled)
    parts, octaves = [rows], []
    for k in range(num_freqs):
        if k:
            s, c = 2.0 * s * c, (c - s) * (c + s)
        parts += [s, c]
        octaves.append((s, c))
    out = np.concatenate(parts, axis=1)
    d = rows.shape[1]
    g = g.reshape(len(rows), -1)
    dx = g[:, :d]
    for k, (s, c) in enumerate(octaves):
        gs, gc = g[:, d * (1 + 2 * k):d * (2 + 2 * k)], g[:, d * (2 + 2 * k):d * (3 + 2 * k)]
        dx = dx + (gs * c - gc * s) * (np.pi * 2.0 ** k)
    return out.reshape(*x.shape[:-1], -1), dx.reshape(x.shape)


@pytest.mark.parametrize("num_freqs", [2, 4, 8])
# one row, one block, one block and a row, two blocks and a tail
@pytest.mark.parametrize("shape", [(1, 3), (ENCODE_BLOCK, 3), (ENCODE_BLOCK + 1, 3),
                                   (2 * ENCODE_BLOCK + 37, 3)])
def test_encoding_blocks_keep_octave_doubling_bits(shape, num_freqs):
    # a plain input's encoding in either dtype is the float64 one rounded
    # to it, byte for byte; a Node's value and gradient stay float64
    rng = np.random.default_rng(8)
    x = rng.normal(size=shape) * 4.0
    g = rng.normal(size=(shape[0], 3 + 6 * num_freqs))
    ref_out, ref_dx = encode_octave_doubling(x, num_freqs, g)
    for dtype in (np.float64, np.float32):
        node = ad.Node(x)
        out = encode_position(node, num_freqs, dtype)
        ad.backward(ad.sum_(ad.mul(out, g)))
        assert out.value.dtype == np.float64 and np.array_equal(out.value, ref_out)
        assert np.array_equal(node.grad, ref_dx)
        plain = encode_position(x, num_freqs, dtype)
        assert plain.dtype == dtype and plain.tobytes() == ref_out.astype(dtype).tobytes()


def layout_case(rays, k):
    """A model with the desk fields' widths, ``rays`` rays of ``k`` sample
    points, their unit directions and frames, and an output gradient for
    each field."""
    model = tiny_model(trunk_depth=4, trunk_width=64, rgb_width=64)
    rng = np.random.default_rng(100 * rays + k)
    x = rng.normal(size=(rays * k, 3)) * 2.0
    d = rng.normal(size=(rays, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    t = rng.integers(0, model.config.n_frames, rays)
    return model, x, d, t, (rng.normal(size=(rays * k, 5)), rng.normal(size=(rays * k, 4)))


def field_values(model, enc_x, enc_d, t, k):
    """Both fields' heads over encoded points and directions, as rendering
    evaluates them."""
    return (model.field("static", ("rgb", "sigma", "pst"), enc_x, k, enc_d).out,
            model.field("dynamic", ("rgb", "sigma"), enc_x, k, enc_d, model.glo_lookup(t)).out)


# one ray, one row at k = 1; a few rays; several encoding blocks of rows at
# k = 32; three forward blocks of rows and an 8-row tail at k = 1
@pytest.mark.parametrize("k", [1, 8, 32])
@pytest.mark.parametrize("rays", [1, 2, 32, 256, 3 * 224 + 8])
class TestEncodingLayout:
    """The fields read an encoding where :func:`encode_position` stores it,
    feature-major, through its transpose: the same bytes as over a
    row-major copy."""

    def test_plain_encoding_keeps_field_bytes(self, rays, k):
        model, x, d, t, _ = layout_case(rays, k)
        store = model.store
        store.set_frozen_groups(set(store.groups()))
        enc_x = encode_position(x, model.config.pos_freqs, store.field_dtype)
        enc_d = encode_position(d, model.config.dir_freqs)
        # no transposed copy-out: each is the transpose of what was written
        assert enc_x.T.flags.c_contiguous and enc_d.T.flags.c_contiguous
        got = field_values(model, enc_x, enc_d, t, k)
        want = field_values(model, np.ascontiguousarray(enc_x), np.ascontiguousarray(enc_d),
                            t, k)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_node_encoding_keeps_value_and_gradient_bytes(self, rays, k):
        model, x, d, t, gs = layout_case(rays, k)
        store = model.store
        store.set_frozen_groups(set())
        enc_x = encode_position(ad.Node(x), model.config.pos_freqs).value
        enc_d = encode_position(ad.Node(d), model.config.dir_freqs).value
        assert enc_x.T.flags.c_contiguous and enc_d.T.flags.c_contiguous
        trained = [n for n in sorted(store.values) if store.group_of[n] in ("static", "dynamic")]

        def run(enc_x, enc_d):
            store.begin_step()
            ex, ed = ad.Node(enc_x), ad.Node(enc_d)
            outs = field_values(model, ex, ed, t, k)
            ad.backward(ad.add(*(ad.sum_(ad.mul(o, g)) for o, g in zip(outs, gs))))
            return [o.value for o in outs] + [ex.grad, ed.grad] + [store.grad(n) for n in trained]

        got = run(enc_x, enc_d)
        want = run(np.ascontiguousarray(enc_x), np.ascontiguousarray(enc_d))
        assert len(got) == len(want) == 4 + len(trained)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMlp:
    def test_forward_matches_dense_arithmetic_bitwise(self):
        model = tiny_model()
        store = model.store
        # float64 weights, as in the float64 reference
        store.field_dtype = np.float64
        x = np.random.default_rng(3).normal(size=(50, model.config.pos_dim))
        ref = x
        for i in range(model.config.trunk_depth):
            ref = ref @ store.values[f"static.trunk.{i}.w"] + store.values[f"static.trunk.{i}.b"]
            # the trunk, read by a head, ends in its activation too
            ref = np.maximum(ref, 0.0)
        ref = ref @ store.values["static.sigma.0.w"] + store.values["static.sigma.0.b"]
        trunk = Mlp(store, "static.trunk", heads=(Mlp(store, "static.sigma"),))
        store.begin_step()
        assert np.array_equal(trunk(x).value, ref)
        # a frozen group's weights are constants: plain arrays in and out
        store.set_frozen_groups({"static"})
        out = trunk(x)
        assert isinstance(out, np.ndarray) and np.array_equal(out, ref)
        store.set_frozen_groups(set())


class TestGlo:
    def test_lookup_repeatable(self):
        model = tiny_model()
        a = ad.value_of(model.glo_lookup(np.array([2, 2])))
        assert np.array_equal(a[0], a[1])

    def test_out_of_range_time(self):
        model = tiny_model()
        with pytest.raises(IndexError):
            model.glo_lookup(np.array([5]))
        with pytest.raises(IndexError):
            model.glo_lookup(np.array([-1]))

    def test_init_scale(self):
        # normal(0, 0.01) rows at dim 8: norms comfortably below 0.1
        model = tiny_model(seed=123)
        norms = np.linalg.norm(model.store.values["glo"], axis=1)
        assert norms.max() <= 0.1

    def test_gradient_reaches_codes(self):
        model = tiny_model()
        model.store.begin_step()
        out = model.glo_lookup(np.array([1, 3]))
        ad.backward(ad.sum_(ad.mul(out, 2.0)))
        g = model.store.grad("glo")
        assert np.all(g[[1, 3]] == 2.0)
        assert np.all(g[[0, 2, 4]] == 0.0)


STATIC = ("rgb", "sigma", "pst")


class TestFieldEval:
    def test_static_output_ranges(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        x = rng.uniform(-10, 10, size=(40, 3))
        d = rng.normal(size=(40, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        enc_x, enc_d = encoded(model, x, d)
        out = model.field("static", STATIC, enc_x, 1, enc_d)
        c, sigma, p_st = (ad.value_of(v) for v in (out.rgb, out.sigma, out.pst))
        assert np.all((c >= 0) & (c <= 1))
        assert np.all(sigma >= 0)
        assert np.all((p_st > 0) & (p_st < 1))
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(sigma))

    def test_dynamic_output_ranges_and_t_check(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        x = rng.uniform(-10, 10, size=(20, 3))
        d = rng.normal(size=(20, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        t = rng.integers(0, 5, size=20)
        enc_x, enc_d = encoded(model, x, d)
        out = model.field("dynamic", ("rgb", "sigma"), enc_x, 1, enc_d, model.glo_lookup(t))
        c, sigma = ad.value_of(out.rgb), ad.value_of(out.sigma)
        assert np.all((c >= 0) & (c <= 1)) and np.all(sigma >= 0)
        with pytest.raises(IndexError):
            model.glo_lookup(np.full(20, 7))

    def test_same_seed_reproduces_outputs(self):
        a, b = tiny_model(seed=9), tiny_model(seed=9)
        x = np.array([[0.3, -0.2, 2.0]])
        d = np.array([[0.0, 0.0, 1.0]])
        enc_x, enc_d = encoded(a, x, d)
        sa, sb = (m.field("static", STATIC, enc_x, 1, enc_d) for m in (a, b))
        for head in STATIC:
            assert np.array_equal(ad.value_of(getattr(sa, head)),
                                  ad.value_of(getattr(sb, head)))

    def test_staticness_starts_uniform_static(self):
        model = tiny_model()
        x = np.random.default_rng(3).uniform(-5, 5, size=(30, 3))
        d = np.tile([0.0, 0.0, 1.0], (30, 1))
        enc_x, enc_d = encoded(model, x, d)
        p_st = model.field("static", STATIC, enc_x, 1, enc_d).pst
        assert np.allclose(ad.value_of(p_st), 1 / (1 + np.exp(-1.0)))

    @pytest.mark.parametrize("heads, cols", [
        (STATIC, {"rgb": (0, 3), "sigma": (3, 1), "pst": (4, 1)}),
        (("pst", "rgb", "sigma"), {"pst": (0, 1), "rgb": (1, 3), "sigma": (4, 1)}),
        (("sigma",), {"sigma": (0, 1)}),
    ])
    def test_each_head_keeps_its_bytes_whatever_runs_beside_it(self, heads, cols):
        # a graph-free field decodes each head it is asked for to the same
        # bytes in any order and company; its columns follow the order given
        model = tiny_model()
        model.store.set_frozen_groups(set(model.store.groups()))
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, size=(24, 3))
        d = rng.normal(size=(8, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        enc_x, enc_d = encoded(model, x, d)
        want = model.field("static", STATIC, enc_x, 3, enc_d)
        got = model.field("static", heads, enc_x, 3, enc_d if "rgb" in heads else None)
        assert list(got.cols.items()) == list(cols.items())
        for head in heads:
            a, b = getattr(got, head), getattr(want, head)
            assert type(a) is np.ndarray and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestRayEmbedding:
    def test_dimension(self):
        model = tiny_model(ray_samples=32)
        o = np.zeros((3, 3))
        d = np.tile([0.0, 0.0, 1.0], (3, 1))
        emb = model.ray_embedding(o, d, near=1.0, far=5.0)
        assert ad.value_of(emb).shape == (3, 32 * 15)

    def test_identical_rays_identical_embeddings(self):
        model = tiny_model()
        o = np.tile([0.1, 0.2, 0.0], (2, 1))
        d = np.tile([0.0, 0.0, 1.0], (2, 1))
        emb = ad.value_of(model.ray_embedding(o, d, 1.0, 5.0))
        assert np.array_equal(emb[0], emb[1])

    def test_direction_changes_embedding(self):
        model = tiny_model()
        o = np.zeros((2, 3))
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.1, 0.99498743710662]])
        emb = ad.value_of(model.ray_embedding(o, d, 1.0, 5.0))
        assert not np.array_equal(emb[0], emb[1])

    def test_rejects_bad_bounds(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.ray_embedding(np.zeros((1, 3)), np.ones((1, 3)), 5.0, 5.0)


class TestLocalScrew:
    def test_zero_at_initialization(self):
        model = tiny_model()
        o = np.random.default_rng(4).normal(size=(6, 3))
        d = np.tile([0.0, 0.0, 1.0], (6, 1))
        screw = ad.value_of(model.local_screw(o, d, np.zeros(6, dtype=int), 1.0, 5.0))
        assert np.all(screw == 0.0)

    def test_deterministic_per_ray_and_time(self):
        model = tiny_model()
        model.store.values["local.mlp.2.w"] += 0.05  # make output nonzero
        o = np.array([[0.1, 0.0, 0.0]])
        d = np.array([[0.0, 0.0, 1.0]])
        s1 = ad.value_of(model.local_screw(o, d, np.array([2]), 1.0, 5.0))
        s2 = ad.value_of(model.local_screw(o, d, np.array([2]), 1.0, 5.0))
        assert np.array_equal(s1, s2)

    def test_finite_difference_on_final_weight(self):
        # gradient to the local MLP flows once its branch is active
        model = tiny_model()
        store = model.store
        o = np.random.default_rng(5).normal(size=(4, 3)) * 0.3
        d = np.tile([0.0, 0.0, 1.0], (4, 1))
        t = np.array([0, 1, 1, 2])
        w = np.random.default_rng(6).normal(size=(4, 6))

        def loss():
            store.begin_step()
            screw = model.local_screw(o, d, t, 1.0, 5.0)
            return ad.sum_(ad.mul(screw, w))

        ad.backward(loss())
        name = "local.mlp.2.w"
        analytic = store.grad(name).reshape(-1)
        idx = int(np.argmax(np.abs(analytic)))
        assert analytic[idx] != 0.0
        h = 1e-6
        flat = store.values[name].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        fp = float(ad.value_of(loss()))
        flat[idx] = orig - h
        fm = float(ad.value_of(loss()))
        flat[idx] = orig
        assert analytic[idx] == pytest.approx((fp - fm) / (2 * h), rel=1e-6)


class TestScrewTables:
    def test_zero_initialized(self):
        model = tiny_model()
        assert np.all(model.store.values["screw.base"] == 0.0)
        assert np.all(model.store.values["screw.global"] == 0.0)

    def test_global_q_range(self):
        model = tiny_model()
        with pytest.raises(IndexError):
            model.global_screws(np.array([0]), q=2)

    def test_base_rows_match_table(self):
        model = tiny_model()
        model.store.values["screw.base"][:] = np.arange(30).reshape(5, 6)
        rows = model.base_screws(np.array([3, 0]))
        assert np.array_equal(ad.value_of(rows), [np.arange(18, 24), np.arange(6)])


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = tiny_model(seed=11)
        model.store.adam_m["static.trunk.0.w"] += 0.25
        model.store.adam_t["static.trunk.0.w"] = 7
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, {"note": "roundtrip", "iteration": 42})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "roundtrip", "iteration": 42}
        assert sorted(loaded.store.values) == sorted(model.store.values)
        for name in model.store.values:
            assert np.array_equal(loaded.store.values[name], model.store.values[name])
            assert np.array_equal(loaded.store.adam_m[name], model.store.adam_m[name])
            assert np.array_equal(loaded.store.adam_v[name], model.store.adam_v[name])
            assert loaded.store.adam_t[name] == model.store.adam_t[name]
            assert loaded.store.group_of[name] == model.store.group_of[name]
        assert loaded.config == model.config

    @pytest.mark.parametrize("count", [-1, 1.5, "3", True])
    def test_rejects_an_adam_count_that_is_not_a_whole_number(self, tmp_path, count):
        # each once loaded through int(); -1 then made the next Adam step
        # divide 0/0 and write NaN weights
        model = tiny_model()
        model.store.adam_t["static.sigma.0.b"] = count
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, {})
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: adam_t of static.sigma.0.b is {count!r}, "
                                  f"not an integer >= 0")

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, {})
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, {})
        data = bytearray(path.read_bytes())
        # bump the version field inside the JSON header
        idx = data.find(b'"version": 1')
        data[idx:idx + len(b'"version": 1')] = b'"version": 9'
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
