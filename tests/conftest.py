import contextlib

import pytest

from moblurf import autodiff as ad


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
