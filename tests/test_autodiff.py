import numpy as np
import pytest

from noisylab.autodiff import (
    DomainError,
    ShapeError,
    Tensor,
    avg_pool2d,
    conv2d,
    conv_transpose2d,
    grad_check,
    max_pool2d,
)


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


class TestForwardOps:
    def test_softmax_symmetry(self):
        out = Tensor([0.0, 0.0]).softmax()
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_relu(self):
        out = Tensor([-1.0, 2.0]).relu()
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_matmul_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        out = t64(np.eye(3)).matmul(t64(a))
        np.testing.assert_allclose(out.data, a)

    def test_matmul_shape_error_names_operator(self):
        with pytest.raises(ShapeError, match="matmul"):
            Tensor(np.zeros((2, 3))).matmul(Tensor(np.zeros((2, 3))))

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            Tensor([1.0, -1.0]).log()

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(0)
        probs = t64(rng.standard_normal((16, 5))).softmax(axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-9)
        assert probs.data.min() >= 0.0 and probs.data.max() <= 1.0

    def test_forward_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        a = Tensor(x).softmax(axis=-1).data
        b = Tensor(x).softmax(axis=-1).data
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_sum_of_squares(self):
        w = t64([1.0, 2.0], requires_grad=True)
        (w * w).sum().backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_detached_has_no_grad(self):
        w = t64([1.0, 2.0], requires_grad=True)
        loss = (w.detach() * 3.0).sum()
        loss.backward()
        assert w.grad is None

    def test_non_scalar_rejected(self):
        w = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (w * w).backward()

    def test_grad_accumulates_on_reuse(self):
        w = t64([3.0], requires_grad=True)
        (w + w).sum().backward()
        np.testing.assert_allclose(w.grad, [2.0])

    def test_mlp_matches_finite_differences(self):
        # 3-layer perceptron; checks the whole chain at once
        rng = np.random.default_rng(42)
        w1 = rng.standard_normal((5, 8))
        w2 = rng.standard_normal((8, 8))
        w3 = rng.standard_normal((8, 3))
        x = rng.standard_normal((4, 5))

        def f(t):
            h = (Tensor(x).matmul(t)).relu()
            h = (h.matmul(Tensor(w2))).relu()
            return h.matmul(Tensor(w3)).log_softmax(axis=-1).square().mean()

        assert grad_check(f, t64(w1), step=1e-5) <= 1e-4

    def test_two_runs_bit_identical(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((4, 2)).astype(np.float32)

        def run():
            wt = Tensor(w.copy(), requires_grad=True)
            loss = Tensor(x.copy()).matmul(wt).softmax(axis=-1).square().sum()
            loss.backward()
            return loss.data.copy(), wt.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(g1, g2)


class TestGradCheckOracle:
    def test_polynomial_near_exact(self):
        err = grad_check(lambda t: (t * t).sum(), t64([1.0, 2.0, 3.0]))
        assert err < 1e-6

    def test_nan_reported_as_failure(self):
        err = grad_check(lambda t: (t * float("nan")).sum(), t64([1.0]))
        assert err == float("inf")


OPERATOR_CASES = [
    ("add", lambda t, aux: (t + Tensor(aux)).square().sum(), (3, 4)),
    ("multiply", lambda t, aux: (t * Tensor(aux)).sum(), (3, 4)),
    ("matmul", lambda t, aux: t.matmul(Tensor(aux.T)).square().sum(), (3, 4)),
    ("relu", lambda t, aux: t.relu().square().sum(), (3, 4)),
    ("sigmoid", lambda t, aux: t.sigmoid().square().sum(), (3, 4)),
    ("exp", lambda t, aux: t.exp().sum(), (3, 4)),
    ("square", lambda t, aux: t.square().sum(), (3, 4)),
    ("sum_axis", lambda t, aux: t.sum(axis=1).square().sum(), (3, 4)),
    ("mean", lambda t, aux: t.mean().square().sum(), (3, 4)),
    ("softmax", lambda t, aux: t.softmax(axis=-1).square().sum(), (3, 4)),
    ("log_softmax", lambda t, aux: t.log_softmax(axis=-1).square().sum(), (3, 4)),
    ("reshape", lambda t, aux: t.reshape(4, 3).matmul(Tensor(aux[:, :3])).sum(), (3, 4)),
    ("log_clamped", lambda t, aux: t.softmax(axis=-1).clamp(1e-12, 1.0).log().sum(), (3, 4)),
    ("conv2d", lambda t, aux: conv2d(t, Tensor(aux), padding=1).square().sum(), (2, 2, 5, 5)),
    ("conv2d_w", lambda t, aux: conv2d(Tensor(aux), t, padding=0).square().sum(), (3, 2, 3, 3)),
    ("conv_transpose2d", lambda t, aux: conv_transpose2d(t, Tensor(aux), stride=2).square().sum(), (2, 2, 3, 3)),
    ("max_pool2d", lambda t, aux: max_pool2d(t, 2).square().sum(), (1, 1, 4, 4)),
    ("avg_pool2d", lambda t, aux: avg_pool2d(t, 2).square().sum(), (1, 1, 4, 4)),
]


@pytest.mark.parametrize("name,fn,shape", OPERATOR_CASES, ids=[c[0] for c in OPERATOR_CASES])
def test_operator_gradients_match_finite_differences(name, fn, shape):
    rng = np.random.default_rng(hash(name) % 2**32)
    aux_shape = {
        "conv2d": (3, 2, 3, 3),
        "conv2d_w": (2, 2, 5, 5),
        "conv_transpose2d": (2, 3, 2, 2),
    }.get(name, (3, 4))
    for trial in range(20):
        point = t64(rng.standard_normal(shape))
        aux = rng.standard_normal(aux_shape)
        assert grad_check(lambda t: fn(t, aux), point, step=1e-5) <= 1e-4, f"{name} trial {trial}"
