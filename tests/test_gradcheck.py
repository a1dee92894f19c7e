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
