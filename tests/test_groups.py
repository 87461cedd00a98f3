import itertools
import json
import random

import pytest

from magnuskit.groups import (
    FreeHandle,
    HeisenbergHandle,
    PermHandle,
    ZNHandle,
    ZrHandle,
    ball,
    edge_traversal_counts,
    enumerate_finite,
    handle_from_descriptor,
)
from magnuskit.magnus import SolvableElement, magnus_embed, solvable_group
from magnuskit.words import FreeWord
from magnuskit.wreath import WreathGroup

HANDLES = [
    ZrHandle(2),
    ZNHandle(6),
    PermHandle(3),
    HeisenbergHandle(),
    FreeHandle(2),
]


def _random_element(handle, rng, steps=6):
    gens = [g for _, g in handle.gen_steps()]
    acc = handle.identity
    for _ in range(rng.randint(0, steps)):
        acc = handle.multiply(acc, rng.choice(gens))
    return acc


@pytest.mark.parametrize("handle", HANDLES, ids=lambda h: h.kind)
def test_group_laws(handle):
    rng = random.Random(5)
    e = handle.identity
    for _ in range(100):
        a, b, c = (_random_element(handle, rng) for _ in range(3))
        assert handle.key(handle.multiply(handle.multiply(a, b), c)) == handle.key(
            handle.multiply(a, handle.multiply(b, c))
        )
        assert handle.key(handle.multiply(a, handle.invert(a))) == handle.key(e)
        assert handle.key(handle.multiply(a, e)) == handle.key(a)


@pytest.mark.parametrize("handle", HANDLES, ids=lambda h: h.kind)
def test_metric_axioms_random(handle):
    rng = random.Random(6)
    for _ in range(60):
        a, b, c = (_random_element(handle, rng, steps=2) for _ in range(3))
        dab = handle.distance(a, b)
        dbc = handle.distance(b, c)
        dac = handle.distance(a, c)
        k = _random_element(handle, rng, steps=2)
        left = handle.distance(handle.multiply(k, a), handle.multiply(k, b))
        assert dac <= dab + dbc
        assert left == dab  # left invariance
        assert (dab == 0) == (handle.key(a) == handle.key(b))


ROW_HANDLES = [
    ZrHandle(1),
    ZrHandle(2),
    ZrHandle(3),
    ZNHandle(6),
    PermHandle(3),
    HeisenbergHandle(),
    FreeHandle(2),
    solvable_group(2, 2),
    WreathGroup(ZrHandle(1), ZrHandle(2)),
]


@pytest.mark.parametrize("handle", ROW_HANDLES, ids=lambda h: json.dumps(h.describe()))
def test_distance_rows_and_symmetry(handle):
    # rows equal the distance loop, and on these short elements every
    # shipped metric is symmetric, as travel's matrix assumes when it copies
    # its lower triangle (a wreath metric's exact flag is not symmetric
    # beyond travel_exact_max: test_wreath.py::test_travel_legs_into_b_read_d_p_b)
    rng = random.Random(7)
    for _ in range(25):
        a = _random_element(handle, rng, steps=3)
        pts = [_random_element(handle, rng, steps=3) for _ in range(rng.randint(0, 6))]
        assert handle.distances(a, pts) == [handle.distance(a, p) for p in pts]
        assert all(handle.distance(a, p) == handle.distance(p, a) for p in pts)
    assert handle.distances(handle.identity, []) == []


@pytest.mark.parametrize("handle", HANDLES, ids=lambda h: h.kind)
def test_generators_have_length_one(handle):
    e = handle.identity
    for _, g in handle.generators():
        assert handle.distance(e, g) == 1
        assert handle.distance(e, handle.invert(g)) == 1


def test_zr_distance_examples():
    Z2 = ZrHandle(2)
    assert Z2.distance((0, 0), (3, -2)) == 5
    assert Z2.distance(Z2.identity, Z2.identity) == 0


def test_zn_distance_and_order():
    Z6 = ZNHandle(6)
    assert Z6.distance(0, 4) == 2
    assert Z6.order(2) == 3
    assert Z6.order(0) == 1
    assert Z6.order(1) == 6


def test_heisenberg_commutator_distance():
    H = HeisenbergHandle()
    z = H.from_word(FreeWord(2, (1, 2, -1, -2)))
    assert z == (0, 0, 1)
    assert H.distance(H.identity, z) == 4


def test_heisenberg_central_power_words():
    # [x1^k, x2^k] lands on the k^2-th central power, so |z^(k^2)| <= 4k.
    H = HeisenbergHandle()
    for k in (1, 2, 3):
        w = FreeWord(2, (1,) * k + (2,) * k + (-1,) * k + (-2,) * k)
        assert H.from_word(w) == (0, 0, k * k)
        assert H.norm((0, 0, k * k)) <= 4 * k


def test_ball_counts():
    assert len(ball(ZrHandle(2), 1)) == 5
    assert len(ball(FreeHandle(2), 2)) == 17
    assert len(ball(ZNHandle(6), 3)) == 6  # whole group


def test_heisenberg_ball_against_word_enumeration():
    # Independent oracle: multiply out every word of length <= 3 directly.
    H = HeisenbergHandle()
    seen = set()
    gens = [g for _, g in H.gen_steps()]
    for n in range(0, 4):
        for combo in itertools.product(gens, repeat=n):
            acc = H.identity
            for s in combo:
                acc = H.multiply(acc, s)
            seen.add(acc)
    assert seen == set(ball(H, 3))


def test_heisenberg_norm_against_bfs_ball():
    # the closed form against the breadth-first oracle on all 68,079
    # elements of the radius-20 ball; each (a, b) slice of the ball is an
    # interval of c, and the c just outside it lies outside the ball
    H = HeisenbergHandle()
    R = 20
    slices = {}
    for (a, b, c), (_, r) in ball(H, R).items():
        assert H.norm((a, b, c)) == r
        slices.setdefault((a, b), []).append(c)
    assert sum(map(len, slices.values())) == 68079
    for (a, b), cs in slices.items():
        assert max(cs) - min(cs) + 1 == len(cs)
        assert H.norm((a, b, min(cs) - 1)) > R
        assert H.norm((a, b, max(cs) + 1)) > R


def test_order_infinite_cases():
    assert ZrHandle(2).order((0, 0)) == 1
    assert ZrHandle(2).order((2, 1)) is None
    H = HeisenbergHandle()
    assert H.order((0, 0, 5)) is None
    assert FreeHandle(2).order(FreeWord(2, (1,))) is None


def test_perm_handle():
    S3 = PermHandle(3)
    assert len(enumerate_finite(S3)) == 6
    swap = S3.generators()[0][1]
    cyc = S3.generators()[1][1]
    assert S3.order(swap) == 2
    assert S3.order(cyc) == 3
    assert S3.power_membership(S3.multiply(cyc, cyc), cyc) == 2
    assert S3.power_membership(swap, cyc) is None


def test_power_membership_zr():
    Z2 = ZrHandle(2)
    assert Z2.power_membership((4, 2), (2, 1)) == 2
    assert Z2.power_membership((1, 0), (0, 1)) is None
    assert Z2.power_membership((-6, 3), (2, -1)) == -3
    with pytest.raises(ValueError):
        Z2.power_membership((1, 1), (0, 0))


Z_WR_HEIS = WreathGroup(ZrHandle(1), HeisenbergHandle())
WREATHS = {
    "wreath": WreathGroup(ZNHandle(2), ZrHandle(1)),
    "Z_wr_heis": Z_WR_HEIS,
    "Z2_wr_Z2": WreathGroup(ZNHandle(2), ZNHandle(2)),
    "Z_wr_Z_wr_heis": WreathGroup(ZrHandle(1), Z_WR_HEIS),
}


def _power_window(handle, b, kmax):
    """Keys of b^k for |k| <= kmax."""
    keys = set()
    for step in (b, handle.invert(b)):
        acc = handle.identity
        for _ in range(kmax + 1):
            keys.add(handle.key(acc))
            acc = handle.multiply(acc, step)
    return keys


@pytest.mark.parametrize(
    "handle",
    [
        pytest.param(h, id=h.kind if h.kind != "free_solvable" else f"S2{h.d}")
        for h in HANDLES + [solvable_group(2, 2), solvable_group(2, 3)]
    ]
    + [pytest.param(h, id=name) for name, h in WREATHS.items()],
)
def test_power_membership_against_brute_force(handle):
    # coset membership rests on power_membership alone: b^k is found with a
    # correct exponent, and a short y, or b^k one generator off, is found
    # iff a window of powers holds it.  Wreath exponents reach 100, past any
    # length cap, with the window as wide: powers of a central Heisenberg
    # base part are distorted.
    rng = random.Random(9)
    e = handle.key(handle.identity)
    kmax, window_k = (100, 101) if isinstance(handle, WreathGroup) else (4, 12)
    for _ in range(40):
        b = _random_element(handle, rng, steps=4)
        if handle.key(b) == e:
            continue
        x = handle.power(b, rng.randint(-kmax, kmax))
        got = handle.power_membership(x, b)
        assert got is not None and handle.key(handle.power(b, got)) == handle.key(x)
        # no power b^k outside the window has length <= 4 or is one
        # generator off x: a generator is no proper power in the torsion-free
        # groups, and a finite cyclic subgroup lies inside the window
        window = _power_window(handle, b, window_k)
        y = _random_element(handle, rng, steps=4)
        near = handle.multiply(x, rng.choice(handle.gen_steps())[1])
        for z in (y, near):
            got = handle.power_membership(z, b)
            assert (got is not None) == (handle.key(z) in window)
            if got is not None:
                assert handle.key(handle.power(b, got)) == handle.key(z)
    if isinstance(handle, HeisenbergHandle):
        assert handle.power_membership((1, 0, 0), (0, 1, 0)) is None


def test_power_membership_free():
    F = FreeHandle(2)
    b = FreeWord(2, (1, 2))
    assert F.power_membership(b.power(3), b) == 3
    assert F.power_membership(b.power(-2), b) == -2
    assert F.power_membership(FreeWord(2, (1,)), b) is None
    # conjugated base: b = w a w^-1
    c = FreeWord(2, (2, 1, -2))
    assert F.power_membership(c.power(4), c) == 4


def test_edge_walker_simple_paths():
    Z2 = ZrHandle(2)
    counts, _, end = edge_traversal_counts(Z2, FreeWord(2, (1,)))
    assert counts == {((0, 0), 1): 1}
    assert end == (1, 0)
    counts, _, end = edge_traversal_counts(Z2, FreeWord(2, (1, -1)))
    assert counts == {} and end == (0, 0)
    counts, _, end = edge_traversal_counts(Z2, FreeWord(2, (-1,)))
    assert counts == {((-1, 0), 1): -1} and end == (-1, 0)


def test_descriptor_round_trip():
    for desc in (
        {"kind": "Zr", "r": 2},
        {"kind": "ZN", "N": 6},
        {"kind": "heisenberg"},
        {"kind": "heisenberg", "cap": 18},  # ignored: the metric is closed-form
        {"kind": "perm", "degree": 3},
        {"kind": "free", "rank": 2},
        {"kind": "free_solvable", "r": 2, "d": 2},
    ):
        h = handle_from_descriptor(desc)
        out = h.describe()
        assert handle_from_descriptor(out) == h


def test_free_solvable_d1_normalises_to_zr():
    h = handle_from_descriptor({"kind": "free_solvable", "r": 2, "d": 1})
    assert h.describe() == {"kind": "Zr", "r": 2}


def test_element_json_round_trip():
    rng = random.Random(12)
    for handle in HANDLES:
        for _ in range(20):
            g = _random_element(handle, rng, steps=4)
            assert handle.key(handle.from_json(handle.to_json(g))) == handle.key(g)


@pytest.mark.parametrize(
    "handle",
    HANDLES + [solvable_group(2, 2), solvable_group(2, 3), WreathGroup(ZrHandle(1), ZrHandle(2))],
    ids=lambda h: h.kind if h.kind != "free_solvable" else f"S2{h.d}",
)
def test_conjugator(handle):
    # half the pairs are conjugate by construction; None must be backed by
    # a small ball holding no conjugator either
    rng = random.Random(70)
    small = ball(handle, 2)
    for i in range(24):
        b = _random_element(handle, rng, steps=5)
        if i % 2 == 0:
            g = _random_element(handle, rng, steps=3)
            c = handle.multiply(handle.multiply(handle.invert(g), b), g)
        else:
            c = _random_element(handle, rng, steps=5)
        z = handle.conjugator(b, c)
        if z is None:
            assert i % 2
            assert all(
                handle.key(handle.multiply(b, y)) != handle.key(handle.multiply(y, c))
                for y, _ in small.values()
            )
            continue
        assert handle.key(handle.multiply(b, z)) == handle.key(handle.multiply(z, c))
        if isinstance(z, SolvableElement):
            assert magnus_embed(z.word, handle.base) == z.form
