"""gradcheck's stacked central differences against the per-coordinate loop
they replace."""

import numpy as np
import pytest

from sgim import gradcheck

from graph_reference import max_rel_error_loop

# the rows the per-coordinate metric fails on round-off at these seeds
FALSE_FAILURES = {0: [], 6: ["encoder_w1"], 18: ["manipulation_objective"]}


@pytest.mark.parametrize("seed", sorted(FALSE_FAILURES))
def test_stacked_errors_equal_the_loop(seed, monkeypatch):
    stacked = gradcheck.run_gradient_checks(seed)

    def looped(analytic, values, x, eps=1e-5):
        # one point at a time, as two copies of itself: a one-point stack
        # of a manipulation row would bind a one-row step
        return max_rel_error_loop(
            analytic, lambda y: values(np.stack([y, y]))[0], x, eps)

    monkeypatch.setattr(gradcheck, "max_rel_error", looped)
    oracle = gradcheck.run_gradient_checks(seed)
    assert len(stacked) == 15
    assert ([(r.name, r.max_rel_error.hex()) for r in stacked]
            == [(r.name, r.max_rel_error.hex()) for r in oracle])
    assert [r.name for r in stacked if not r.passed] == FALSE_FAILURES[seed]

