import contextlib

import pytest

from moblurf import autodiff as ad

# the tests' small architecture: two 16-wide trunk layers, 8-wide heads and
# refinement MLP, two latent rays and an 8-point ray embedding
TINY_ARCH = dict(n_latent=2, trunk_depth=2, trunk_width=16, rgb_width=8,
                 local_depth=2, local_width=8, ray_samples=8)


def tiny_arch(**overrides) -> dict:
    """:data:`TINY_ARCH` with ``overrides`` on top: the keyword arguments of
    a ``FieldConfig`` (with ``n_frames``) or ``resolve_config``'s overrides."""
    return {**TINY_ARCH, **overrides}


@pytest.fixture
def wrong_gradients(monkeypatch):
    """A context manager within which ``autodiff.backward`` leaves every
    leaf gradient 1 % and 1e-7 off: what a gradient check must catch."""
    backward = ad.backward

    def off_backward(root):
        backward(root)
        for node in ad.topo_order(root):
            if not node.parents and node.grad is not None:
                node.grad = node.grad * 1.01 + 1e-7

    @contextlib.contextmanager
    def wrong():
        with monkeypatch.context() as m:
            m.setattr(ad, "backward", off_backward)
            yield

    return wrong
