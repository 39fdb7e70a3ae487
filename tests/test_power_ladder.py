import numpy as np
import pytest

from smddc import build_ladder, sinr_at_level


def closed_form_level(gamma: float, n0: float, level: int) -> float:
    """Closed form rho_l = gamma * n0 * (1+gamma)^(l-1); cross-check for the recursion."""
    return gamma * n0 * (1.0 + gamma) ** (level - 1)


def test_build_ladder_gamma4():
    assert build_ladder(4, 1, 3).levels == (4, 20, 100)


def test_build_ladder_gamma1_powers_of_two():
    assert build_ladder(1, 1, 3).levels == (1, 2, 4)


def test_build_ladder_gamma2_hand_recursion():
    # oracle: run the recursion by hand
    # rho1 = 2*1 = 2; rho2 = 2*(2+1) = 6; rho3 = 2*(6+2+1) = 18; rho4 = 2*(18+6+2+1) = 54
    assert build_ladder(2, 1, 4).levels == (2, 6, 18, 54)


def test_sinr_equals_target():
    lad = build_ladder(4, 1, 3)
    assert sinr_at_level(lad, 1) == 4  # rho1 / n0
    assert sinr_at_level(lad, 3) == pytest.approx(100 / (20 + 4 + 1))
    lad2 = build_ladder(2, 1, 4)
    assert sinr_at_level(lad2, 4) == pytest.approx(54 / (18 + 6 + 2 + 1))


def test_sinr_target_on_grid():
    rng = np.random.default_rng(0)
    for _ in range(100):
        gamma = float(rng.uniform(0.1, 10))
        n0 = float(rng.uniform(0.1, 5))
        depth = int(rng.integers(1, 9))
        lad = build_ladder(gamma, n0, depth)
        for level in range(1, depth + 1):
            assert sinr_at_level(lad, level) == pytest.approx(gamma, rel=1e-12)


def test_closed_form_matches_recursion():
    rng = np.random.default_rng(1)
    for _ in range(50):
        gamma = float(rng.uniform(0.1, 10))
        n0 = float(rng.uniform(0.1, 5))
        lad = build_ladder(gamma, n0, 6)
        for level, rho in enumerate(lad.levels, start=1):
            assert rho == pytest.approx(closed_form_level(gamma, n0, level), rel=1e-12)


def test_monotone_when_gamma_at_least_one():
    for gamma in (1.0, 1.5, 4.0):
        levels = build_ladder(gamma, 1.0, 6).levels
        assert all(b >= a for a, b in zip(levels, levels[1:]))
        assert all(rho > 0 for rho in levels)
    # positivity holds even for gamma < 1
    assert all(rho > 0 for rho in build_ladder(0.3, 1.0, 6).levels)


@pytest.mark.parametrize("gamma,n0,depth", [(-1, 1, 3), (0, 1, 3), (4, 0, 3), (4, -2, 3), (4, 1, 0)])
def test_invalid_parameters(gamma, n0, depth):
    with pytest.raises(ValueError):
        build_ladder(gamma, n0, depth)


def test_level_out_of_range():
    lad = build_ladder(4, 1, 3)
    with pytest.raises(IndexError):
        sinr_at_level(lad, 0)
    with pytest.raises(IndexError):
        sinr_at_level(lad, 4)
