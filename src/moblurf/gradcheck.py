"""Finite-difference verification of every differentiable op and of the
end-to-end training losses on a small ray batch.

Each op case generates random inputs, reduces the op output to a scalar
through a random weighting, and compares backward() gradients component by
component against Richardson's extrapolation of central differences. The
end-to-end checks rebuild the stage losses of the relu model that training
builds as deterministic functions of the parameter store and probe a sample
of parameter components per group by central differences, off relu kinks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import se3
from .fields import encode_position

FD_STEP = 1e-6
OP_TOL = 1e-4
END_TO_END_TOL = 1e-3
TRIALS = 20         # random input points per op case


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rel_err(analytic: np.ndarray, numeric: np.ndarray, magnitude: float,
             tol: float) -> float:
    """Largest error relative to the larger of the two gradients, where an
    error within the difference quotient's own rounding, eps * magnitude / h
    for a function summed from terms of total size ``magnitude``, counts as
    ``tol`` at most: a component fails only on an error beyond both."""
    rounding = np.finfo(np.float64).eps * magnitude / FD_STEP
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                       max(rounding / tol, np.finfo(np.float64).tiny))
    return float((np.abs(analytic - numeric) / scale).max())


def _kinked(fp: float, f0: float, fm: float, tol: float) -> bool:
    """True when the one-sided slopes from f(x + h), f(x) and f(x - h)
    differ by more than ``tol`` of the larger or than the rounding of f(x)
    allows (as in :func:`_rel_err`): a kink lies within h of x, where a
    central difference is no reference."""
    up, down = (fp - f0) / FD_STEP, (f0 - fm) / FD_STEP
    rounding = np.finfo(np.float64).eps * abs(f0) / FD_STEP
    return abs(up - down) / 2 > max(tol * abs(up), tol * abs(down), rounding)


def _fd_grad(f, x: np.ndarray) -> np.ndarray:
    """Richardson's extrapolation (4 D(h/2) - D(h)) / 3 of the central
    differences D at h = ``FD_STEP`` and h / 2: its truncation is O(h^4),
    where a central difference's h^2 term alone reaches several tolerances
    at the positional encoding's eighth octave. Its rounding is about three
    times one central difference's."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        d = []
        for h in (FD_STEP, FD_STEP / 2):
            flat[i] = orig + h
            fp = f(x)
            flat[i] = orig - h
            fm = f(x)
            d.append((fp - fm) / (2 * h))
        flat[i] = orig
        gf[i] = (4 * d[1] - d[0]) / 3
    return g


def _away_from_zero(rng, shape, margin=0.25):
    return (rng.random(shape) + margin) * rng.choice([-1.0, 1.0], size=shape)


def _positive(rng, shape):
    return rng.random(shape) + 0.2


def _dense_inputs(rng, sizes=(5, 4, 3, 2), margin=0.05, per_ray=None):
    """x (3, sizes[0]) and the w, b of each layer of a stack with layer
    widths ``sizes``, as one list x, w0, b0, w1, b1, ..., whose relu
    pre-activations all keep ``margin`` from the kink, so finite differences
    never straddle it. With ``per_ray`` = (k, c), x is (3k, sizes[0] - c)
    and is followed in the list by u (3, c), one row per ray of k rows of x,
    whose columns are the input's last c."""
    k, c = per_ray or (1, 0)
    while True:
        h = joined = rng.normal(size=(3 * k, sizes[0]))
        if c:
            joined[:, -c:] = np.repeat(rng.normal(size=(3, c)), k, axis=0)
        params, clear = [], True
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            w, b = rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out)
            z = h @ w + b
            clear = clear and np.abs(z).min() > margin
            h = np.maximum(z, 0.0)
            params += [w, b]
        if clear:
            if c:
                return [joined[:, :-c], joined[::k, -c:], *params]
            return [joined, *params]


def _mlp(k=None):
    """``ad.mlp`` over x, w0, b0, w1, b1, ... as separate arguments, in the
    trunks' form: a relu stack of every layer but the last, which is its
    one head; with ``k``, over x, u, w0, b0, ... with u per ray of k rows of
    x, the stack's."""
    def op(x, *params):
        u, params = (params[0], params[1:]) if k else (None, params)
        layers = list(zip(params[::2], params[1::2]))
        return ad.mlp(x, layers[:-1], u=u, k=k or 1, heads=[(layers[-1:], None, 1)])
    return op


def _heads_inputs(rng, k=2, margin=0.05):
    """The fields' form: x (3k, 5), a relu trunk's w0, b0, w1, b1 (5 -> 4
    -> 3, activated output), a one-column head's w, b, and a per-ray head's
    u (3, 2), w0, b0, w1, b1 (3 + 2 -> 4 -> 2), every relu pre-activation
    ``margin`` from the kink."""
    x, *trunk = _dense_inputs(rng, sizes=(5, 4, 3), margin=margin, per_ray=(k, 0))
    h = x
    for w, b in zip(trunk[::2], trunk[1::2]):
        h = np.maximum(h @ w + b, 0.0)
    while True:
        u, w0, b0 = rng.normal(size=(3, 2)), rng.normal(size=(5, 4)), rng.normal(size=4)
        if np.abs(np.hstack([h, np.repeat(u, k, axis=0)]) @ w0 + b0).min() > margin:
            break
    return [x, *trunk, rng.normal(size=(3, 1)), rng.normal(size=1),
            u, w0, b0, rng.normal(size=(4, 2)), rng.normal(size=2)]


def _mlp_heads(k=2):
    """``ad.mlp`` over :func:`_heads_inputs`' operands, the heads bound."""
    def op(x, tw0, tb0, tw1, tb1, sw, sb, u, hw0, hb0, hw1, hb1):
        return ad.mlp(x, [(tw0, tb0), (tw1, tb1)],
                      heads=[([(sw, sb)], None, 1), ([(hw0, hb0), (hw1, hb1)], u, k)])
    return op


def _frozen_weights(inputs):
    """:func:`_mlp` over ``x`` alone, its weights ``inputs[1:]`` constants."""
    x, *params = inputs
    return [x], lambda x: _mlp()(x, *params)


# Each case: name -> (input generator, op over nodes). The op may return any
# shape; the harness contracts it with fixed random weights.
def _op_cases(rng):
    b = (3, 4)
    v3 = (5, 3)
    return {
        "add": ([rng.normal(size=b), rng.normal(size=(4,))],
                lambda x, y: ad.add(x, y)),
        "sub": ([rng.normal(size=b), rng.normal(size=b)],
                lambda x, y: ad.sub(x, y)),
        "mul": ([rng.normal(size=b), rng.normal(size=(4,))],
                lambda x, y: ad.mul(x, y)),
        "div": ([rng.normal(size=b), _away_from_zero(rng, b)],
                lambda x, y: ad.div(x, y)),
        # the trunks' form: a relu stack read by a head
        "mlp_relu": (_dense_inputs(rng), _mlp()),
        "mlp_frozen": _frozen_weights(_dense_inputs(rng)),
        # the sigma and staticness heads' form: one linear layer to one
        # column, whose input gradient is a product of inner dimension 1
        "mlp_head": (_dense_inputs(rng, sizes=(4, 1), margin=0.0),
                     lambda x, w, b: ad.mlp(x, [(w, b)])),
        # the RGB heads' and the dynamic trunk's form: a per-ray operand
        "mlp_per_ray": (_dense_inputs(rng, per_ray=(2, 2)), _mlp(2)),
        "exp": ([rng.normal(size=b)], ad.exp),
        "log": ([_positive(rng, b)], ad.log),
        # the desk's pos_freqs: bands built by seven doublings
        "encode_position": ([rng.normal(size=(4, 3))],
                            lambda x: encode_position(x, 8)),
        "sigmoid": ([rng.normal(size=b) * 3], ad.sigmoid),
        "softplus": ([rng.normal(size=b) * 3], ad.softplus),
        "sum": ([rng.normal(size=b)], lambda x: ad.sum_(x, axis=1)),
        "mean": ([rng.normal(size=b)], lambda x: ad.mean(x, axis=0)),
        "normalize3": ([_away_from_zero(rng, v3)], ad.normalize3),
        "cross3": ([rng.normal(size=v3), rng.normal(size=v3)],
                   lambda x, y: ad.cross3(x, y)),
        "concat": ([rng.normal(size=(3, 2)), rng.normal(size=(3, 3))],
                   lambda x, y: ad.concat([x, y], axis=1)),
        "gather": ([rng.normal(size=(6, 3))],
                   lambda x: ad.gather(x, np.array([0, 2, 2, 5]))),
        "narrow": ([rng.normal(size=(6, 3))], lambda x: ad.narrow(x, 1, 3, axis=0)),
        "reshape": ([rng.normal(size=(6, 2))], lambda x: ad.reshape(x, (3, 4))),
        "exclusive_cumprod": ([_positive(rng, (3, 6))],
                              ad.exclusive_cumprod),
        # saturated compositing: factors that underflowed to exactly zero
        "exclusive_cumprod_zeros": (
            [_positive(rng, (3, 6)) * (rng.random((3, 6)) > 0.3)],
            ad.exclusive_cumprod),
        # u = theta^2 log-uniform over [2e-6, 4]: from where a closed-form
        # derivative would cancel, across the series/closed-form switch at 1
        "rot_coef_a": ([2e-6 * 2e6 ** rng.random((6,))], lambda u: ad.rot_coefs(u)[0]),
        "rot_coef_b": ([2e-6 * 2e6 ** rng.random((6,))], lambda u: ad.rot_coefs(u)[1]),
        "rot_coef_c": ([2e-6 * 2e6 ** rng.random((6,))], lambda u: ad.rot_coefs(u)[2]),
        # u = |omega|^2 and its coefficients feed all three moved vectors;
        # |omega| from 0.43 to 2.2 puts u on both sides of the switch
        "warp_ray": ([rng.normal(size=v3), rng.normal(size=v3),
                      _away_from_zero(rng, v3), rng.normal(size=v3)],
                     lambda o, d, w, v: ad.concat(list(se3.warp_ray(o, d, w, v)), axis=1)),
        # the fields' form: a trunk whose one-column and per-ray two-layer
        # heads run inside its node; drawn from a spawned generator, which
        # leaves the stream of the other cases and of the weighting as it was
        "mlp_heads": (_heads_inputs(rng.spawn(1)[0]), _mlp_heads()),
    }


def check_op(name: str, seed: int = 0) -> CheckResult:
    """Compare one op's backward gradients against finite differences
    (:func:`_fd_grad`) at :data:`TRIALS` random input points."""
    worst = 0.0
    for trial in range(TRIALS):
        rng = np.random.default_rng(seed * 1000 + trial)
        cases = _op_cases(rng)
        if name not in cases:
            raise KeyError(f"unknown op case {name!r}")
        inputs, op = cases[name]
        nodes = [ad.Node(x.copy()) for x in inputs]
        out = op(*nodes)
        w = rng.normal(size=out.value.shape)
        root = ad.sum_(ad.mul(out, w))
        ad.backward(root)
        magnitude = float(np.abs(out.value * w).sum())
        for i, (node, x) in enumerate(zip(nodes, inputs)):
            analytic = node.grad if node.grad is not None else np.zeros_like(x)
            others = [inp.copy() for inp in inputs]

            def f(xv, i=i, others=others):
                args = list(others)
                args[i] = xv
                return float(np.sum(ad.value_of(op(*args)) * w))

            numeric = _fd_grad(f, x.copy())
            # the extrapolation rounds about three times as much as D(h)
            worst = max(worst, _rel_err(analytic, numeric, 3 * magnitude, OP_TOL))
    return CheckResult(name=name, max_rel_err=worst, tol=OP_TOL)


def run_op_checks(seed: int = 0) -> list[CheckResult]:
    names = sorted(_op_cases(np.random.default_rng(0)))
    return [check_op(n, seed=seed) for n in names]


# ---------------------------------------------------------------------------
# end-to-end losses


def _tiny_scene():
    """Compact scene for FD probing: same structure as the desk scene, world
    lengths scaled down 4x so the positional encodings' curvature does not
    drown h^2 truncation at the mandated step size."""
    from .cameras import CameraPose
    from .scene import AnalyticScene, MovingQuad

    s = 0.25
    size = 16
    fx = fy = float(size)
    c = size / 2.0
    quad = MovingQuad(
        half_u=0.62 * s, half_v=0.55 * s,
        center_fn=lambda tau: np.array([
            0.52 * s * np.sin(2 * np.pi * 0.8 * tau + 0.4),
            0.34 * s * np.cos(2 * np.pi * 0.6 * tau + 0.9),
            3.0 * s,
        ]),
        angle_fn=lambda tau: 2 * np.pi * 0.75 * tau,
    )

    def pose_fn(tau):
        center = np.array([0.05 * s * np.sin(2 * np.pi * tau),
                           0.04 * s * np.sin(2 * np.pi * 1.3 * tau + 1.0),
                           0.0])
        return CameraPose(np.eye(3), center, fx, fy, c, c)

    return AnalyticScene(
        width=size, height=size, fx=fx, fy=fy, cx=c, cy=c,
        near=1.5 * s, far=9.0 * s, bg_z=6.0 * s, n_frames=4,
        pose_fn=pose_fn, quads=[quad], eval_timestamps=[1])


def _tiny_trainer(seed: int):
    from .config import resolve_config
    from .data import synthesize_dataset
    from .training import Trainer

    dataset = synthesize_dataset(_tiny_scene(), seed=seed, preset_name="gradcheck")
    # low encoding bands keep the h^2 truncation of central differences far
    # below the tolerance at the mandated step size; the fields are the relu
    # MLPs of training; every op in the loss is exercised either here or in
    # the per-op checks
    cfg = resolve_config("desk", overrides=dict(
        seed=seed, batch_size=4, n_samples=8, n_latent=2,
        trunk_depth=2, trunk_width=24, rgb_width=16,
        local_depth=2, local_width=16, ray_samples=8,
        pos_freqs=5, dir_freqs=3, ray_freqs=2))
    return Trainer(cfg, dataset)


def check_full_loss(kind: str, seed: int = 0) -> CheckResult:
    """FD-verify d(loss)/d(theta) for the stage losses on a 4-ray batch.

    ``kind`` is a step kind of :data:`training.STEPS`, under its freeze set.
    Probes the three largest-gradient components of each parameter group
    plus two random ones; the loss is evaluated with deterministic midpoint
    sampling. A probe whose window holds a relu kink (:func:`_kinked`)
    gives way to the group's largest component not yet probed, while one
    is left.
    """
    from .training import STEPS

    frozen, method = STEPS[kind]
    trainer = _tiny_trainer(seed)
    batch = trainer.sample_batch()
    store = trainer.model.store
    # central differences at h = 1e-6 need float64 losses
    store.field_dtype = np.float64
    store.set_frozen_groups(frozen)
    extra = {}
    if kind == "mdd":   # every other ray dynamic, the one lg ray first: the
        # local refinement runs, and the lg term supervises that ray
        extra["mask_override"] = (np.arange(len(batch.rays)) + 1) % 2

    def build_loss():
        store.begin_step()
        return getattr(trainer, method)(batch, rng=None, **extra)[0]

    loss = build_loss()
    ad.backward(loss)
    grads = {n: store.grad(n) for n in store.values}
    f0 = float(ad.value_of(loss))

    rng = np.random.default_rng(seed + 17)
    worst = 0.0
    for name, g in grads.items():
        flat = g.reshape(-1)
        if not np.any(flat):
            continue
        order = np.argsort(-np.abs(flat))
        picks = list(order[:3])
        picks += list(rng.choice(flat.size, size=min(2, flat.size), replace=False))
        picks = list(dict.fromkeys(int(i) for i in picks))
        spares = (int(i) for i in order if int(i) not in picks)
        vals = store.values[name].reshape(-1)
        for pick in picks:
            for idx in itertools.chain([pick], spares):
                orig = vals[idx]
                vals[idx] = orig + FD_STEP
                fp = float(ad.value_of(build_loss()))
                vals[idx] = orig - FD_STEP
                fm = float(ad.value_of(build_loss()))
                vals[idx] = orig
                if not _kinked(fp, f0, fm, END_TO_END_TOL):
                    break
            numeric = (fp - fm) / (2 * FD_STEP)
            worst = max(worst, _rel_err(np.array(flat[idx]), np.array(numeric),
                                        abs(f0), END_TO_END_TOL))
    return CheckResult(name=f"loss:{kind}", max_rel_err=worst, tol=END_TO_END_TOL)


def run_all(seed: int = 0):
    """Full harness: every op plus the three stage losses."""
    return run_op_checks(seed=seed) + [check_full_loss(kind, seed=seed)
                                       for kind in ("bri_even", "bri_odd", "mdd")]
