import numpy as np
import pytest

from moblurf import autodiff as ad
from moblurf.render import (UNIFORM_FLOOR, RenderResult, SampleGrid, dynamicness,
                            motion_mask, sample_along_ray, sample_from_weights)


class Samples:
    """One field's decoded samples as plain arrays, in the form of
    ``fields.FieldSamples``."""

    def __init__(self, rgb, sigma, pst=None):
        self.rgb, self.sigma, self.pst = rgb, sigma, pst


def render_full(static_out, dynamic_out, grid):
    """RenderResult of (colors, sigmas, p_st) static and (colors, sigmas)
    dynamic samples."""
    return RenderResult(Samples(*static_out), Samples(*dynamic_out), grid)


def dynamic_composite(colors, sigmas, grid):
    """One field's own composite, as the dynamic field's: (color (B,3),
    weights (B,N))."""
    res = render_full((None, None), (colors, sigmas), grid)
    return res.color_dynamic, res.weights_dynamic


def make_grid(near=1.0, far=5.0, n=4, batch=2, rng=None):
    return sample_along_ray(near, far, n, batch, rng)


def brute_force_full(c_s, sig_s, p, c_d, sig_d, grid):
    """Direct per-ray loop over the double product-sum. Oracle for Eq-style
    probabilistic composition; intentionally written sample by sample."""
    b, n = sig_s.shape
    color = np.zeros((b, 3))
    weights = np.zeros((b, n))
    for i in range(b):
        trans = 1.0
        for j in range(n):
            a_s = 1.0 - np.exp(-sig_s[i, j] * grid.deltas[j])
            a_d = 1.0 - np.exp(-sig_d[i, j] * grid.deltas[j])
            ws = trans * p[i, j] * a_s
            wd = trans * (1.0 - p[i, j]) * a_d
            color[i] += ws * c_s[i, j] + wd * c_d[i, j]
            weights[i, j] = ws + wd
            trans *= (1.0 - p[i, j] * a_s) * (1.0 - (1.0 - p[i, j]) * a_d)
    return color, weights


def random_fields(batch, n, rng):
    c_s = rng.random((batch, n, 3))
    c_d = rng.random((batch, n, 3))
    sig_s = rng.random((batch, n)) * 3
    sig_d = rng.random((batch, n)) * 3
    p = rng.random((batch, n)) * 0.9 + 0.05
    return c_s, sig_s, p, c_d, sig_d


class TestSampling:
    def test_single_deterministic_sample_is_midpoint(self):
        grid = sample_along_ray(2.0, 6.0, 1, 3, rng=None)
        assert np.all(grid.dists == 4.0)
        assert np.array_equal(grid.edges, [2.0, 6.0])

    def test_samples_inside_bounds(self):
        rng = np.random.default_rng(0)
        grid = sample_along_ray(1.0, 9.0, 32, 16, rng)
        assert grid.dists.min() >= 1.0 and grid.dists.max() <= 9.0
        assert np.all(np.diff(grid.edges) > 0)

    def test_stratified_one_draw_per_bin(self):
        grid = sample_along_ray(0.5, 4.5, 8, 4, np.random.default_rng(1))
        lo = grid.edges[:-1]
        hi = grid.edges[1:]
        assert np.all((grid.dists >= lo) & (grid.dists <= hi))

    def test_stratified_reproducible(self):
        a = sample_along_ray(1.0, 5.0, 8, 4, np.random.default_rng(7))
        b = sample_along_ray(1.0, 5.0, 8, 4, np.random.default_rng(7))
        assert np.array_equal(a.dists, b.dists)

    def test_rejects_no_samples_and_bad_bounds(self):
        with pytest.raises(ValueError):
            sample_along_ray(1.0, 5.0, 0, 2)
        with pytest.raises(ValueError):
            sample_along_ray(5.0, 1.0, 4, 2)
        with pytest.raises(ValueError):
            sample_along_ray(0.0, 1.0, 4, 2)


def mixed_cdf(weights, edges, x):
    """The proposal's mixed CDF at distances ``x`` (B, M), segment by
    segment: each ray's normalized weights at share 1 - UNIFORM_FLOOR plus
    the uniform density over [near, far]."""
    lengths = np.diff(edges)
    pdf = ((1 - UNIFORM_FLOOR) * weights / weights.sum(axis=1, keepdims=True)
           + UNIFORM_FLOOR * lengths / (edges[-1] - edges[0]))
    part = np.clip((x[..., None] - edges[:-1]) / lengths, 0.0, 1.0)
    return (part * pdf[:, None, :]).sum(axis=-1)


def proposal_weights(batch=5, n=16, seed=0):
    """Peaked compositing weights, one ray without any, and the jittered
    uniform grid of the render they come from."""
    rng = np.random.default_rng(seed)
    w = rng.random((batch, n)) ** 8
    w[0] = 0.0
    return w, sample_along_ray(1.0, 5.0, n, batch, rng)


class TestProposalSampling:
    def test_endpoints_are_near_and_far(self):
        w, base = proposal_weights()
        picks, grid = sample_from_weights(w, base, 8, np.random.default_rng(1))
        assert np.all(grid.edges[:, 0] == 1.0) and np.all(grid.edges[:, -1] == 5.0)
        assert grid.edges.shape == (5, 9) and grid.dists.shape == grid.deltas.shape == (5, 8)
        assert picks.shape == (5, 8) and grid.n_samples == 8

    def test_picks_are_base_samples_in_order(self):
        # each pick is a base segment, non-decreasing along its ray, and the
        # grid's sample distances are the base samples' at the picks
        w, base = proposal_weights(seed=2)
        for rng in (None, np.random.default_rng(3)):
            picks, grid = sample_from_weights(w, base, 8, rng)
            assert picks.dtype.kind == "i"
            assert np.all((picks >= 0) & (picks < base.n_samples))
            assert np.all(np.diff(picks, axis=1) >= 0)
            assert np.array_equal(grid.dists, np.take_along_axis(base.dists, picks, axis=1))

    def test_edges_strictly_increase_and_picks_overlap_their_segments(self):
        # a segment's mass target lies in its picked base segment, so the
        # two overlap along the ray
        w, base = proposal_weights(seed=2)
        for rng in (None, np.random.default_rng(3)):
            picks, grid = sample_from_weights(w, base, 8, rng)
            assert np.all(np.diff(grid.edges, axis=1) > 0)
            assert np.array_equal(grid.deltas, np.diff(grid.edges, axis=1))
            assert np.all(base.edges[picks] <= grid.edges[:, 1:] + 1e-12)
            assert np.all(base.edges[picks + 1] >= grid.edges[:, :-1] - 1e-12)

    def test_each_bin_holds_an_equal_share_of_the_mixed_mass(self):
        w, base = proposal_weights(seed=4)
        w[0, 3] = 1.0                     # a ray whose weight is one segment's
        for k in (1, 3, 8, 12):
            _, grid = sample_from_weights(w, base, k)
            cdf = mixed_cdf(w, base.edges, grid.edges)
            assert np.abs(cdf - np.arange(k + 1) / k).max() < 1e-12, k

    def test_peaked_weights_draw_samples_to_the_peak(self):
        w = np.full((1, 16), 1e-3)
        w[0, 10] = 1.0
        base = sample_along_ray(1.0, 5.0, 16, 1, np.random.default_rng(0))
        picks, grid = sample_from_weights(w, base, 8)
        assert (picks == 10).sum() >= 5
        assert np.all(grid.dists[picks == 10] == base.dists[0, 10])

    def test_uniform_weights_reproduce_the_uniform_grid(self):
        base = sample_along_ray(1.0, 5.0, 8, 3, np.random.default_rng(5))
        for w in (np.ones((3, 8)), np.zeros((3, 8))):
            picks, got = sample_from_weights(w, base, 8, np.random.default_rng(6))
            assert np.array_equal(picks, np.tile(np.arange(8), (3, 1)))
            assert np.array_equal(got.dists, base.dists)
            assert np.abs(got.edges - base.edges).max() < 1e-14
            assert np.abs(got.deltas - base.deltas).max() < 1e-14

    def test_same_seed_same_bits_and_one_draw_per_sample(self):
        w, base = proposal_weights(seed=6)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        pa, a = sample_from_weights(w, base, 8, rng_a)
        pb, b = sample_from_weights(w, base, 8, rng_b)
        assert np.array_equal(pa, pb) and np.array_equal(a.dists, b.dists)
        assert np.array_equal(a.edges, b.edges)
        rng_c = np.random.default_rng(7)
        rng_c.random((5, 8))
        assert rng_a.random() == rng_c.random()

    @pytest.mark.parametrize("seed", [None, 10])
    def test_targets_are_midpoints_or_one_draw(self, seed):
        # segment i's mass target is (i + r_i) / k, for the one (B, k) draw
        # r with rng and r = 1/2 without; its pick is the base segment
        # whose mixed mass holds it
        w, base = proposal_weights(seed=9)
        w[0, 3] = 1.0
        rng = None if seed is None else np.random.default_rng(seed)
        picks, _ = sample_from_weights(w, base, 8, rng)
        r = 0.5 if seed is None else np.random.default_rng(seed).random((5, 8))
        cdf = mixed_cdf(w, base.edges, np.broadcast_to(base.edges, (5, 17)))
        targets = np.broadcast_to((np.arange(8) + r) / 8, (5, 8))
        want = (cdf[:, None, :-1] <= targets[..., None]).sum(-1) - 1
        assert np.array_equal(picks, want)

    def test_select_takes_rows_of_a_per_ray_grid(self):
        w, base = proposal_weights(seed=8)
        _, grid = sample_from_weights(w, base, 4)
        rows = np.array([3, 3, 0])
        sub = grid.select(rows)
        for name in ("edges", "dists", "deltas"):
            assert np.array_equal(getattr(sub, name), getattr(grid, name)[rows])
        uniform = sample_along_ray(1.0, 5.0, 4, 5)
        assert uniform.select(rows).edges is uniform.edges

    def test_rejects_no_samples(self):
        w, base = proposal_weights()
        with pytest.raises(ValueError):
            sample_from_weights(w, base, 0)


class TestComposite:
    def test_zero_density_renders_black(self):
        grid = make_grid()
        colors = np.random.default_rng(0).random((2, 4, 3))
        color, weights = dynamic_composite(colors, np.zeros((2, 4)), grid)
        assert np.all(color == 0)
        assert np.all(weights == 0)

    def test_opaque_first_sample_dominates(self):
        grid = make_grid()
        colors = np.random.default_rng(1).random((1, 4, 3))
        sig = np.zeros((1, 4))
        sig[0, 0] = 30.0 / grid.deltas[0]  # sigma * delta = 30
        color, _ = dynamic_composite(colors, sig, grid)
        assert np.abs(color[0] - colors[0, 0]).max() < 1e-9

    def test_two_sample_hand_recurrence(self):
        grid = SampleGrid(edges=np.array([1.0, 2.0, 3.0]),
                          dists=np.array([[1.5, 2.5]]),
                          deltas=np.array([1.0, 1.0]))
        sig = np.array([[0.7, 0.7]])
        colors = np.array([[[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]])
        color, weights = dynamic_composite(colors, sig, grid)
        a = 1 - np.exp(-0.7)
        w1, w2 = a, (1 - a) * a
        assert np.allclose(weights, [[w1, w2]])
        assert np.allclose(color, [w1 * colors[0, 0] + w2 * colors[0, 1]])

    def test_weight_sum_telescopes(self):
        rng = np.random.default_rng(2)
        grid = make_grid(n=32, batch=8)
        sig = rng.random((8, 32)) * 5
        _, weights = dynamic_composite(rng.random((8, 32, 3)), sig, grid)
        t_end = np.exp(-(sig * grid.deltas).sum(axis=1))
        assert np.abs(weights.sum(axis=1) - (1.0 - t_end)).max() < 1e-12
        assert np.all(weights.sum(axis=1) <= 1.0 + 1e-9)

    def test_saturated_sample_backpropagates_finite_gradients(self):
        # sigma * delta = 800 underflows exp to exactly 0: transmittance
        # past that sample is 0 and the gradient must stay finite
        grid = make_grid()
        sig = np.full((2, 4), 0.5)
        sig[0, 1] = 800.0 / grid.deltas[1]
        colors = ad.Node(np.random.default_rng(3).random((2, 4, 3)))
        sigmas = ad.Node(sig)
        color, _ = dynamic_composite(colors, sigmas, grid)
        ad.backward(ad.sum_(color))
        assert np.all(np.isfinite(sigmas.grad)) and np.all(np.isfinite(colors.grad))
        assert np.all(colors.grad[0, 2:] == 0.0)  # hidden behind the opaque sample


class TestRenderFull:
    def test_all_static_collapses_to_static(self):
        rng = np.random.default_rng(3)
        grid = make_grid(n=6, batch=3)
        c_s, sig_s, _, c_d, sig_d = random_fields(3, 6, rng)
        p_one = np.full((3, 6), 1.0 - 1e-15)
        res = render_full((c_s, sig_s, p_one), (c_d, sig_d), grid)
        assert np.abs(ad.value_of(res.color_full)
                      - ad.value_of(res.color_static)).max() < 1e-9
        assert np.all(res.p_dy < 1e-12)
        assert np.all(motion_mask(res.p_dy) == 0)

    def test_all_dynamic_collapses_to_dynamic(self):
        rng = np.random.default_rng(4)
        grid = make_grid(n=6, batch=3)
        c_s, sig_s, _, c_d, _ = random_fields(3, 6, rng)
        sig_d = rng.random((3, 6)) * 3 + 0.5  # nonzero dynamic density
        p_zero = np.full((3, 6), 1e-15)
        res = render_full((c_s, sig_s, p_zero), (c_d, sig_d), grid)
        assert np.abs(ad.value_of(res.color_full)
                      - ad.value_of(res.color_dynamic)).max() < 1e-9
        assert np.abs(res.p_dy - 1.0).max() < 1e-9

    def test_matches_brute_force_double_product_sum(self):
        rng = np.random.default_rng(5)
        for trial in range(4):
            grid = make_grid(n=4, batch=3, rng=rng)
            c_s, sig_s, p, c_d, sig_d = random_fields(3, 4, rng)
            res = render_full((c_s, sig_s, p), (c_d, sig_d), grid)
            color, weights = brute_force_full(c_s, sig_s, p, c_d, sig_d, grid)
            assert np.abs(ad.value_of(res.color_full) - color).max() < 1e-12
            # the full weights reach the result through the dynamicness
            assert np.abs(res.p_dy - dynamicness(weights, p)).max() < 1e-12

    def test_kappa_star_within_bounds(self):
        rng = np.random.default_rng(6)
        grid = make_grid(near=2.0, far=7.0, n=16, batch=5, rng=rng)
        c_s, sig_s, p, c_d, sig_d = random_fields(5, 16, rng)
        sig_d += 0.5
        res = render_full((c_s, sig_s, p), (c_d, sig_d), grid)
        kappa = ad.value_of(res.kappa_star)
        assert np.all(kappa >= 0) and np.all(kappa <= 7.0)
        # normalizing by accumulated weight puts the expectation in bounds
        wsum = dynamic_composite(c_d, sig_d, grid)[1].sum(axis=1)
        assert np.all(kappa / wsum >= 2.0 - 1e-9)
        assert np.all(kappa / wsum <= 7.0 + 1e-9)

    def test_colors_in_convex_hull_of_samples(self):
        rng = np.random.default_rng(7)
        grid = make_grid(n=8, batch=4, rng=rng)
        c_s, sig_s, p, c_d, sig_d = random_fields(4, 8, rng)
        res = render_full((c_s, sig_s, p), (c_d, sig_d), grid)
        all_c = np.concatenate([c_s, c_d], axis=1)
        lo = all_c.min(axis=1) - 1e-12
        hi = all_c.max(axis=1) + 1e-12
        for field in (res.color_static, res.color_dynamic, res.color_full):
            v = ad.value_of(field)
            assert np.all(v >= np.minimum(lo, 0)) and np.all(v <= hi)

    def test_invariant_to_appended_zero_density(self):
        rng = np.random.default_rng(8)
        grid = make_grid(n=4, batch=2)
        c_s, sig_s, p, c_d, sig_d = random_fields(2, 4, rng)
        res_a = render_full((c_s, sig_s, p), (c_d, sig_d), grid)
        # append two zero-density samples past far
        grid_b = SampleGrid(edges=np.concatenate([grid.edges, [6.0, 7.0]]),
                            dists=np.concatenate([grid.dists, np.tile([5.5, 6.5], (2, 1))], axis=1),
                            deltas=np.concatenate([grid.deltas, [1.0, 1.0]]))
        pad = np.zeros((2, 2))
        pad_c = np.zeros((2, 2, 3))
        res_b = render_full(
            (np.concatenate([c_s, pad_c], axis=1), np.concatenate([sig_s, pad], axis=1),
             np.concatenate([p, np.full((2, 2), 0.5)], axis=1)),
            (np.concatenate([c_d, pad_c], axis=1), np.concatenate([sig_d, pad], axis=1)),
            grid_b)
        for name in ("color_static", "color_dynamic", "color_full", "kappa_star"):
            assert np.abs(ad.value_of(getattr(res_a, name))
                          - ad.value_of(getattr(res_b, name))).max() < 1e-12
        assert np.abs(res_a.p_dy - res_b.p_dy).max() < 1e-12


def _graph_free_render(monkeypatch):
    """A graph-free render of a small model's rays, and the same samples
    as Nodes; the exclusive products each one's outputs take are counted
    into the returned list."""
    from moblurf.cameras import RayBatch
    from moblurf.fields import FieldConfig, FieldSamples, SceneModel
    from moblurf.render import render_rays
    rng = np.random.default_rng(12)
    model = SceneModel(FieldConfig(n_frames=3, trunk_depth=2, trunk_width=16,
                                   rgb_width=8, local_depth=2, local_width=8,
                                   ray_samples=8), rng)
    store = model.store
    store.set_frozen_groups(set(store.groups()))
    dirs = rng.normal(size=(20, 3))
    rays = RayBatch(origins=rng.normal(size=(20, 3)) * 0.1,
                    dirs=dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                    t=rng.integers(0, 3, size=20), uv=np.zeros((20, 2), int),
                    near=1.0, far=4.0)
    res = render_rays(model, rays, 12)
    static, dynamic = res._static, res._dynamic
    nodes = RenderResult(*(FieldSamples(ad.Node(s.out), s.cols, s.k)
                           for s in (static, dynamic)), res.grid)
    calls = []
    cumprod = ad.exclusive_cumprod
    monkeypatch.setattr(ad, "exclusive_cumprod", lambda a: calls.append(1) or cumprod(a))
    return res, nodes, calls


def test_graph_free_render_shares_its_composites_with_the_same_bits(monkeypatch):
    # a render takes its detached outputs from the full composite's arrays,
    # or their values when the samples carry a graph, and the full
    # transmittance and the dynamic weights once each: the same bytes either
    # way, the detached outputs read first or last
    res, nodes, calls = _graph_free_render(monkeypatch)
    got = [res.color_full, res.p_dy, res.kappa_star, res.w_full]
    assert len(calls) == 2
    w_full, p_dy = nodes.w_full, nodes.p_dy
    want = [ad.value_of(nodes.color_full), p_dy, ad.value_of(nodes.kappa_star), w_full]
    assert len(calls) == 4
    for a, b in zip(got, want):
        assert type(a) is np.ndarray and a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


class TestDynamicness:
    def test_matches_brute_force_normalized_sum(self):
        rng = np.random.default_rng(9)
        grid = make_grid(n=4, batch=3, rng=rng)
        c_s, sig_s, p, c_d, sig_d = random_fields(3, 4, rng)
        res = render_full((c_s, sig_s, p), (c_d, sig_d), grid)
        _, weights = brute_force_full(c_s, sig_s, p, c_d, sig_d, grid)
        for i in range(3):
            expected = (weights[i] / weights[i].sum() * (1 - p[i])).sum()
            assert res.p_dy[i] == pytest.approx(expected, abs=1e-12)

    def test_tiny_weight_sum_reports_zero(self):
        w = np.full((2, 4), 1e-10)
        p = np.full((2, 4), 0.2)
        assert np.all(dynamicness(w, p) == 0.0)

    def test_returns_detached_array(self):
        assert isinstance(dynamicness(np.ones((1, 2)), np.zeros((1, 2))), np.ndarray)


class TestMotionMask:
    def test_strict_threshold(self):
        assert np.array_equal(motion_mask(np.array([0.5, 0.500001, 0.0, 1.0])),
                              [0, 1, 0, 1])

    def test_no_gradient_flows(self):
        out = motion_mask(np.array([0.7]))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.int64
