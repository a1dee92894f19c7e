from phrasealign import gradcheck


def test_every_loss_matches_finite_differences():
    errors = gradcheck.run_suite([0])
    assert set(errors) == set(gradcheck.CHECKS)
    bad = {name: err for name, err in errors.items() if not err < gradcheck.TOLERANCE}
    assert not bad, f"finite-difference error above {gradcheck.TOLERANCE}: {bad}"
