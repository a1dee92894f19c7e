from phrasealign import gradcheck


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
