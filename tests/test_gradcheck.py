import math

import numpy as np
import pytest

from phrasealign import gradcheck
from phrasealign import numerics as nx


def test_every_loss_matches_finite_differences():
    errors = gradcheck.run_suite([0])
    assert set(errors) == set(gradcheck.CHECKS)
    bad = {name: err for name, err in errors.items() if not err < gradcheck.TOLERANCE}
    assert not bad, f"finite-difference error above {gradcheck.TOLERANCE}: {bad}"


def test_mpm_check_resolves_seed_2():
    # seed 2 has a classifier gradient element of about 3.6e-6 on a loss of
    # about 8.3, which a second-order central difference resolves to no
    # better than 1.1e-6 at any step
    assert gradcheck.check_mpm(2) < gradcheck.TOLERANCE


def test_directional_checks_catch_an_unprobed_tensor_off_the_graph(monkeypatch):
    # reading embed.token, which no per-entry check probes, through its
    # array zeroes its gradient: a per-entry check through the same text
    # encoder still passes, and every directional check fails
    gather_rows = nx.gather_rows

    def detached(table, ids):
        if table.op == "param:embed.token":
            table = nx.Tensor(table.data)
        return gather_rows(table, ids)

    monkeypatch.setattr(nx, "gather_rows", detached)
    assert gradcheck.check_itc(0) < gradcheck.TOLERANCE
    for name in ("directions_stage1", "directions_stage2", "directions_local_align"):
        assert gradcheck.CHECKS[name](0) > 1e-2, name


def test_nan_error_on_a_later_probe_is_reported(monkeypatch):
    # Python's max keeps an earlier value over a later NaN
    errs = iter([1e-9, float("nan"), 1e-9, 1e-9])
    monkeypatch.setattr(gradcheck, "finite_diff_param", lambda *a, **k: next(errs))
    assert math.isnan(gradcheck.check_itc(0))


def test_nan_error_on_a_later_seed_is_reported(monkeypatch):
    monkeypatch.setattr(gradcheck, "CHECKS",
                        {"probe": lambda seed: [1e-9, float("nan")][seed]})
    assert math.isnan(gradcheck.run_suite([0, 1])["probe"])


def test_nan_gradient_in_a_directional_check_is_reported(monkeypatch):
    w = nx.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    params = {"w": w}
    backward = nx.backward

    def nan_gradient(root):
        grads = backward(root)
        grads[w] = np.array([1.0, np.nan])
        return grads

    monkeypatch.setattr(nx, "backward", nan_gradient)
    err = gradcheck.finite_diff_directions(
        params, lambda: nx.sum_all(nx.mul(params["w"], params["w"])), nx.Rng(0))
    assert math.isnan(err)
    assert np.array_equal(w.data, [1.0, 2.0])


def test_finite_diff_param_restores_the_parameter_even_when_the_loss_raises():
    w = nx.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    params = {"w": w}
    seen = []

    def failing():
        seen.append(params["w"])
        raise RuntimeError("no loss")

    with pytest.raises(RuntimeError, match="no loss"):
        gradcheck.finite_diff_param(params, "w", failing)
    # the probe stood in for the parameter, and the parameter is back
    assert seen and seen[0] is not w
    assert params["w"] is w
    assert gradcheck.finite_diff_param(
        params, "w", lambda: nx.sum_all(nx.mul(params["w"], params["w"]))) < 1e-6
    assert params["w"] is w
