import numpy as np
from oracles import square, total

from difftf.gradcheck import GRAD_TOL, parameter_errors, run_all
from difftf.tape import Parameter


def squared_norm_loss(p, vjp_gain):
    """loss_on for sum(p^2), recorded with a vjp scaled by vjp_gain."""
    def loss_on(tape):
        s = total(tape, square(tape, tape.leaf(p)))
        return tape.custom(s.value, (s,), lambda g: (vjp_gain * g,), op="scaled")

    return loss_on


class TestParameterErrors:
    def test_correct_vjp_passes_and_values_are_restored(self):
        p = Parameter(np.array([0.3, -1.2, 2.0]), "p")
        (err,) = parameter_errors([p], squared_norm_loss(p, 1.0))
        assert err <= GRAD_TOL
        assert np.array_equal(p.value, [0.3, -1.2, 2.0])
        assert np.array_equal(p.grad, [0.6, -2.4, 4.0])

    def test_wrong_vjp_fails(self):
        p = Parameter(np.array([0.3, -1.2, 2.0]), "p")
        (err,) = parameter_errors([p], squared_norm_loss(p, 1.5))
        # analytic 1.5 * 2p against differences of 2p: |0.5| / 1.5 = 1/3
        assert err > GRAD_TOL
        assert abs(err - 1.0 / 3.0) < 1e-6

    def test_parameter_off_the_loss_has_zero_gradient_and_error(self):
        p = Parameter(np.array([0.5]), "p")
        unused = Parameter(np.array([7.0, 8.0]), "unused")
        unused.grad = np.ones(2)
        _, err = parameter_errors([p, unused], squared_norm_loss(p, 1.0))
        assert err == 0.0 and np.array_equal(unused.grad, np.zeros(2))


def test_run_all_rows_names_order_and_tolerance():
    rows = run_all(seed=0)
    assert [r.name for r in rows] == [
        "filter.grad_b",
        "filter.grad_a",
        "filter.grad_u",
        "model.wh",
        "model.pwh",
        "pem.loss",
        "quantized.grad_y_sim",
        "quantized.grad_log_sigma",
    ]
    assert all(r.tol == 1e-5 for r in rows)
    assert all(r.passed for r in rows)
