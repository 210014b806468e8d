"""Named parameter storage, the Adam optimizer, and LR scheduling."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


# the two fields' MLP weights, which ``ParamStore.leaf`` hands out in field_dtype
FIELD_PREFIXES = ("static.", "dynamic.")


class OptimError(RuntimeError):
    pass


class ParamStore:
    """Flat dict of named float64 parameter arrays plus Adam state.

    Each parameter belongs to a group (e.g. ``"static"``, ``"screw_base"``);
    groups are frozen/unfrozen as a unit. ``leaf(name)`` hands out one graph
    node per parameter per step, so reuse of the same parameter in several
    places accumulates gradients through graph fan-out, and that leaf is
    where ``backward`` leaves the parameter's gradient (``grad(name)``). A
    frozen group's parameters are constants: ``leaf`` hands out plain
    arrays, and what is computed from them and from data alone builds no
    graph.

    The two fields' MLP weights (``static.*``, ``dynamic.*``) are handed out
    as copies in :attr:`field_dtype`, made on a step's first ``leaf`` call.
    Their gradients, Adam's state and the checkpoints stay float64, and so
    does every other parameter, ``local.mlp`` too: it is a small share of a
    step, and its output warps rays.
    """

    # the dtype of the field MLP weights that ``leaf`` hands out: float32
    # (see autodiff.mlp); float64 where a check needs float64 arithmetic
    # end to end (gradcheck's stage losses, tests of float64 identities).
    # A change takes effect at the next ``begin_step``
    field_dtype = np.float32

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.group_of: dict[str, str] = {}
        self.frozen: set[str] = set()
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.adam_t: dict[str, int] = {}
        self._leaves: dict[str, ad.Node | np.ndarray] = {}

    def add(self, name: str, value, group: str) -> None:
        if name in self.values:
            raise OptimError(f"duplicate parameter {name!r}")
        v = np.array(value, dtype=np.float64)
        self.values[name] = v
        self.group_of[name] = group
        self.adam_m[name] = np.zeros_like(v)
        self.adam_v[name] = np.zeros_like(v)
        self.adam_t[name] = 0

    def names(self, group: str | None = None):
        if group is None:
            return list(self.values)
        return [n for n, g in self.group_of.items() if g == group]

    def groups(self):
        return sorted(set(self.group_of.values()))

    def leaf(self, name: str) -> ad.Node | np.ndarray:
        """This step's leaf of ``name``: a Node, or a plain array when its
        group is frozen; a field MLP weight's is its copy in
        :attr:`field_dtype`."""
        got = self._leaves.get(name)
        if got is None:
            value = self.values[name]
            if name.startswith(FIELD_PREFIXES):
                value = value.astype(self.field_dtype, copy=False)
            got = self._leaves[name] = value if self.is_frozen(name) else ad.Node(value)
        return got

    def grad(self, name: str) -> np.ndarray:
        """Gradient of the last ``backward`` at this step's leaf of ``name``,
        float64; zeros when no graph reached it."""
        node = self._leaves.get(name)
        if not isinstance(node, ad.Node) or node.grad is None:
            return np.zeros_like(self.values[name])
        return node.grad

    def begin_step(self) -> None:
        """Drop cached leaves, their copies and gradients, so the next forward
        pass sees current values under the freeze set it runs with."""
        self._leaves = {}

    # freezing -------------------------------------------------------------

    def set_frozen_groups(self, frozen: set[str]) -> None:
        """Freeze exactly the groups ``frozen``. Drops the cached leaves, as
        ``begin_step`` does: a leaf is what its freeze set made it."""
        unknown = frozen - set(self.groups())
        if unknown:
            raise OptimError(f"unknown freeze groups {sorted(unknown)}")
        self.frozen = set(frozen)
        self.begin_step()

    def is_frozen(self, name: str) -> bool:
        return self.group_of[name] in self.frozen

    def checksum(self, group: str | None = None) -> str:
        """Digest of parameter bytes, of one group or of all: what tests
        and the acceptance gate compare weights by."""
        h = hashlib.sha256()
        for name in sorted(self.names(group)):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.values[name]).tobytes())
        return h.hexdigest()


# Adam's moment decay rates and denominator floor (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# each stage's (start, end) learning rates of the screw tables and of the MLPs
SCREW_LR, MLP_LR = (1e-4, 1e-6), (1e-3, 1e-4)


def adam_step(store: ParamStore, rates: dict[str, float]) -> None:
    """One Adam update over all unfrozen parameters, each at its group's
    rate in ``rates``: the screw tables and the MLPs run on different
    schedules. Ends the step, so every gradient reads zero afterwards.
    Every gradient and every rate is checked before any parameter moves, so
    a step that raises leaves the model as it was.
    """
    steps = {name: (store.grad(name), rates[store.group_of[name]])
             for name in store.values if not store.is_frozen(name)}
    for name, (g, _) in steps.items():
        if not np.all(np.isfinite(g)):
            raise OptimError(f"non-finite gradient in parameter {name!r}")
    for name, (g, lr) in steps.items():
        value = store.values[name]
        t = store.adam_t[name] + 1
        m = ADAM_BETA1 * store.adam_m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * store.adam_v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        store.adam_t[name] = t
        store.adam_m[name] = m
        store.adam_v[name] = v
        store.values[name] = value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    store.begin_step()


@dataclass(frozen=True)
class LrSchedule:
    """Geometric interpolation between a start and end rate."""

    start: float
    end: float
    total: int

    def __post_init__(self):
        if self.start <= 0 or self.end <= 0:
            raise OptimError("learning rates must be positive")
        if self.total < 1:
            raise OptimError("schedule length must be >= 1")

    def rate_at(self, step: int) -> float:
        if step < 0 or step > self.total:
            raise OptimError(f"step {step} outside [0, {self.total}]")
        frac = step / self.total
        return self.start * (self.end / self.start) ** frac
