import pytest

from tvautomata import perms


def test_compose_applies_right_factor_first():
    rot = perms.rotation(3)
    swap = perms.transposition(3, 0, 1)
    assert perms.compose(rot, swap) == (2, 1, 0)
    assert perms.compose(swap, rot) == (0, 2, 1)


def test_invert():
    rot = perms.rotation(4)
    assert perms.compose(perms.invert(rot), rot) == perms.identity(4)
    assert perms.invert((2, 0, 1)) == (1, 2, 0)


def test_order():
    assert perms.order(perms.identity(4)) == 1
    assert perms.order(perms.rotation(6)) == 6
    assert perms.order(perms.from_cycles(5, [(0, 1), (2, 3, 4)])) == 6


def test_cycles_cover_fixed_points():
    p = perms.from_cycles(5, [(0, 2, 3)])
    assert perms.cycles(p) == [(0, 2, 3), (1,), (4,)]


def test_from_cycles_rejects_overlap():
    with pytest.raises(ValueError):
        perms.from_cycles(4, [(0, 1), (1, 2)])


def test_permutation_check():
    assert perms.is_permutation((1, 0, 2))
    assert not perms.is_permutation((0, 0, 2))
    with pytest.raises(ValueError):
        perms.check_permutation((0, 0, 2))


def test_rotation_and_transposition_shapes():
    assert perms.rotation(4) == (1, 2, 3, 0)
    assert perms.transposition(4, 1, 3) == (0, 3, 2, 1)


def test_cycle_length_through():
    p = perms.from_cycles(6, [(0, 2, 3), (1, 5)])
    assert perms.cycle_length_through(p, 2) == 3
    assert perms.cycle_length_through(p, 1) == 2
    assert perms.cycle_length_through(p, 4) == 1
