"""Metamorphic checks of the gamma searches: an equivalent problem must give
the same level.

Scaling Q, R and Q_T by 4^k scales every cost, and so the regret and
H-infinity levels, by 4^k: gamma_opt by 2^k. Both searches probe dyadic
levels with a relative stopping rule, and a power-of-2 scaling of the costs
is exact in binary floating point, so the scaled problem gives 2^k gamma_opt
bit for bit, and the optimal controls, in the plant's own coordinates, keep
their bits. The base plant is scaled before augmentation, so the check also
covers that augmentation commutes with the scaling.
"""

import numpy as np
import pytest

from regretctl import controllers as ct
from regretctl.augmentation import augment_delay, augment_predictions
from regretctl.cli import pendulum_system
from regretctl.system_model import LqSystem, validate_system
from helpers import random_disturbance, random_system

AUGMENTATIONS = {
    "plain": lambda sys: sys,
    "lookahead2": lambda sys: augment_predictions(sys, 2).system,
    "delay1": lambda sys: augment_delay(sys, 1).system,
}
SEARCHES = {"regret": ct.regret_optimal, "hinf": ct.hinf_optimal}


def scaled_costs(sys, k):
    """sys with Q, R and Q_T times 4^k."""
    c = 4.0**k
    return validate_system(LqSystem(sys.A, sys.B_u, sys.B_w, c * sys.Q, c * sys.R, c * sys.Q_T))


def assert_levels_scale(sys, augment, k, tol=1e-6):
    """Both searches on augment(sys) and augment(scaled_costs(sys, k)):
    2^k times the level, and the same controls, bit for bit."""
    for name, search in SEARCHES.items():
        base, base_ctrl = search(augment(sys), tol)
        scaled_sys = augment(scaled_costs(sys, k))
        scaled, scaled_ctrl = search(scaled_sys, tol)
        assert scaled.gamma_opt == 2.0**k * base.gamma_opt, (name, scaled.gamma_opt, base.gamma_opt)
        w = random_disturbance(0, scaled_sys)
        assert np.array_equal(scaled_ctrl.control_sequence(w), base_ctrl.control_sequence(w)), name


@pytest.mark.parametrize("variant", list(AUGMENTATIONS))
@pytest.mark.parametrize("stable", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("seed, k", [(4, -1), (6, 2)])
def test_cost_scaling_scales_gamma_exactly(seed, k, stable, variant):
    sys = random_system(seed, T_max=20, stable=stable)
    assert_levels_scale(sys, AUGMENTATIONS[variant], k)


def test_pendulum_cost_scaling_scales_gamma_exactly():
    assert_levels_scale(pendulum_system(100), AUGMENTATIONS["plain"], 1)
