import random

import pytest

from magnuskit import clf, magnus
from magnuskit.config import RunConfig, using
from magnuskit.errors import BeyondCapError
from magnuskit.groups import FreeHandle, HeisenbergHandle, PermHandle, ZNHandle, ZrHandle, ball
from magnuskit.magnus import solvable_group
from magnuskit.clf import (
    CSV_HEADER,
    FamilySpec,
    central_family,
    central_family_min_conjugator,
    clf_scan,
    cyclic_distortion,
    distortion_scan,
    first_witness_scan,
    rows_to_csv,
    z2_min_conjugator,
    z2_triangle_family,
)
from magnuskit.wreath import (
    WreathElement,
    WreathGroup,
    conjugator_for_z,
    w_length,
    w_length_floor,
    w_multiply,
    w_power,
    wreath_element,
)
from magnuskit.words import FreeWord, random_word

Z1 = ZrHandle(1)
Z2 = ZrHandle(2)


def test_distortion_undistorted_line():
    rows = distortion_scan(Z2, (1, 0), 5)
    assert [r.measured for r in rows] == [1, 2, 3, 4, 5]
    assert all(r.measured <= r.bound for r in rows)


def test_distortion_solvable_quick():
    S = solvable_group(2, 2)
    x = S.from_word(FreeWord(2, (1,)))
    for n in range(1, 4):
        assert cyclic_distortion(S, x, n) == n
    comm = S.from_word(FreeWord(2, (1, 2, -1, -2)))
    assert cyclic_distortion(S, comm, 6) == 1  # the square costs 4 per lap


def test_distortion_heisenberg_central():
    H = HeisenbergHandle()
    delta8 = cyclic_distortion(H, (0, 0, 1), 8)
    assert delta8 >= 4  # the k=2 central power word has length 8
    # frozen BFS values: the ratio delta(n)/n climbs (0.5 -> 0.75), the
    # desk-scale footprint of quadratic central distortion
    assert delta8 == 4
    assert cyclic_distortion(H, (0, 0, 1), 12) == 9
    # the closed form carries the quadratic law past any BFS radius
    deltas = [cyclic_distortion(H, (0, 0, 1), n) for n in range(1, 51)]
    assert deltas == [(n // 2) ** 2 // 4 for n in range(1, 51)]
    assert deltas[19] == 25 and deltas[49] == 156


def test_distortion_propagates_beyond_cap():
    # x = (lamps at (0,0) and (0,1), shift (1,0)) has |x| = 5, |x^2| = 8
    # and |x^3| = 13; under travel_exact_max = 3 the six points of x^3 get
    # an uncertified length (13, detour bound 11), which is no evidence
    # that x^3 is longer than n, so it propagates instead of reading
    # delta(13) = 2 where the true value is 3
    x = wreath_element(Z1, Z2, [((0, 0), (1,)), ((0, 1), (1,))], (1, 0))
    G = WreathGroup(Z1, Z2)
    assert [G.distance(G.identity, w_power(x, m)) for m in (1, 2, 3, 4)] == [5, 8, 13, 16]
    with using(RunConfig(travel_exact_max=3)), pytest.raises(BeyondCapError):
        cyclic_distortion(G, x, 13)


def _reference_deltas(B, x, n_max, cap, length=None):
    """delta(0..n_max), each read from the lengths of x^m for m <= cap(n),
    with no distortion window."""
    length = length or (lambda g: B.distance(B.identity, g))
    lengths, acc = [], B.identity
    for _ in range(cap(n_max)):
        acc = B.multiply(acc, x)
        lengths.append(length(acc))
    return [
        max((m for m, l in enumerate(lengths[: cap(n)], 1) if l <= n), default=0)
        for n in range(n_max + 1)
    ]


def _window_cases():
    """(group, element, n_max, cap, length) over seeded elements; cap is twice
    the old 2n + 2 (or 2(n + 1)^2 for Heisenberg) window."""
    rng = random.Random(18)
    linear, quadratic = (lambda n: 4 * n + 4), (lambda n: 4 * (n + 1) ** 2)
    cases = [(Z2, v, 8, linear, None) for v in [(1, 0), (2, -1), (0, 3)]]
    cases += [(Z2, (rng.randint(-3, 3), rng.randint(1, 3)), 8, linear, None) for _ in range(3)]
    F = FreeHandle(2)
    for _ in range(6):
        core = random_word(2, rng.randint(1, 3), rng)
        while not core.letters or core.letters[0] == -core.letters[-1]:
            core = random_word(2, rng.randint(1, 3), rng)  # nontrivial, cyclically reduced
        w = random_word(2, rng.randint(0, 2), rng)
        cases.append((F, w * core * w.inverse(), 8, linear, None))
    H = HeisenbergHandle()
    heis = [(0, 0, 1), (0, 0, -2), (0, 0, 3), (1, 0, 3), (0, -1, 2), (1, 1, 0)]
    heis += [(rng.randint(-2, 2), rng.randint(1, 2), rng.randint(-5, 5)) for _ in range(3)]
    cases += [(H, h, 8, quadratic, None) for h in heis]
    S = solvable_group(2, 2)
    radius = {k: r for k, (_, r) in ball(S, 6).items()}
    words = [(1, 2, -1, -2), (1,)] + [(a, b) for a in (1, -1, 2, -2) for b in (1, -1, 2, -2) if a != -b]
    for letters in words:
        cases.append((S, S.from_word(FreeWord(2, letters)), 6, linear, lambda g: radius.get(S.key(g), 7)))
    W = WreathGroup(Z1, Z2)
    lamps = [
        ([((0, 0), (1,))], (1, 0)),
        ([((0, 0), (2,))], (0, -2)),
        ([((0, 0), (1,)), ((1, 1), (-1,))], (0, 0)),
        ([], (1, 1)),
    ]
    cases += [(W, wreath_element(Z1, Z2, f, b), 8, linear, None) for f, b in lamps]
    Z3 = ZNHandle(3)  # a finite base part: the window comes from a lamp of x^3
    x3 = wreath_element(Z1, Z3, [(0, (1,)), (1, (-1,)), (2, (2,))], 1)
    cases.append((WreathGroup(Z1, Z3), x3, 8, linear, None))
    return cases


def test_distortion_windows_match_an_unwindowed_reference():
    for B, x, n_max, cap, length in _window_cases():
        got = [cyclic_distortion(B, x, n) for n in range(n_max + 1)]
        assert got == _reference_deltas(B, x, n_max, cap, length), (B, x)
        assert [r.measured for r in distortion_scan(B, x, n_max)] == got[1:]


def test_distortion_of_a_distorted_wreath_base_part():
    # the centre of the Heisenberg group inside Z wr Heisenberg keeps its
    # quadratic distortion; a 2n + 2 window read 82 at n = 40 (true 100)
    G = WreathGroup(Z1, HeisenbergHandle())
    x = WreathElement(Z1, G.base, {}, (0, 0, 1))
    rows = distortion_scan(G, x, 60)
    assert [r.measured for r in rows] == [(n // 2) ** 2 // 4 for n in range(1, 61)]
    assert cyclic_distortion(G, x, 40) == 100


def test_finite_order_has_no_distortion():
    with pytest.raises(ValueError):
        cyclic_distortion(ZNHandle(6), 1, 2)
    with pytest.raises(ValueError):
        distortion_scan(Z2, (0, 0), 3)


def test_distortion_scan_measures_each_power_once(monkeypatch):
    calls = []
    norm = HeisenbergHandle.norm
    monkeypatch.setattr(HeisenbergHandle, "norm", lambda self, u: calls.append(u) or norm(self, u))
    rows = distortion_scan(HeisenbergHandle(), (0, 0, 1), 50)
    assert rows[-1].measured == 156 and len(calls) <= 156
    lengths = []
    geodesic = magnus.geodesic_length
    monkeypatch.setattr(magnus, "geodesic_length", lambda g: lengths.append(g) or geodesic(g))
    S = solvable_group(2, 2)
    rows = distortion_scan(S, S.from_word(FreeWord(2, (1, 2))), 6)
    assert [r.measured for r in rows] == [0, 1, 1, 2, 2, 3] and len(lengths) <= 3


def test_distortion_over_two_row_supports_stays_in_the_exact_range():
    # x^6 has 12 lamps on two rows, beyond the exact travel range; the
    # window at n = 2 stops at x^2, so no uncertified length is read
    x = wreath_element(Z1, Z2, [((0, 0), (1,)), ((0, 1), (1,))], (1, 0))
    assert cyclic_distortion(WreathGroup(Z1, Z2), x, 2) == 0


def test_central_family_instance():
    spec = FamilySpec(Z1, Z2, (1, 0), (0, 1), "central")
    inst = central_family(spec, 2)
    assert inst.delta == 2
    assert len(inst.witness.f) == 2 * inst.delta
    assert w_multiply(inst.u, inst.witness) == w_multiply(inst.witness, inst.v)


def test_central_family_degenerate_n0():
    spec = FamilySpec(Z1, Z2, (1, 0), (0, 1), "central")
    inst = central_family(spec, 0)
    assert inst.delta == 0
    assert inst.u == inst.v
    assert not inst.witness.f


def test_central_family_rejects_bad_spec():
    with pytest.raises(ValueError):
        FamilySpec(Z1, Z2, (0, 0), (0, 1), "central").validate()  # x finite order
    with pytest.raises(ValueError):
        FamilySpec(Z1, Z2, (1, 0), (2, 0), "central").validate()  # y^2 inside <x>


def test_central_min_conjugator_small():
    spec = FamilySpec(Z1, Z2, (1, 0), (0, 1), "central")
    scan = central_family_min_conjugator(spec, 1)
    assert scan.min_length is not None
    assert scan.offfamily_clean
    assert scan.min_length.value >= 4


def test_central_family_heisenberg_small():
    H = HeisenbergHandle()
    spec = FamilySpec(Z1, H, (0, 0, 1), (1, 0, 0), "central")
    inst = central_family(spec, 4)
    assert inst.delta == 1
    scan = central_family_min_conjugator(spec, 4)
    assert scan.min_length is not None and scan.offfamily_clean
    assert scan.min_length.value >= 4 * inst.delta


def test_z2_family_instance_and_support():
    spec = FamilySpec(Z1, Z2, (1, 0), (0, 1), "z2")
    inst = z2_triangle_family(spec, 1)
    # both shaded corners: (1,0) -> a and (-1,-1) -> a^-1
    assert inst.witness.lamp_at((1, 0)) == (1,)
    assert inst.witness.lamp_at((-1, -1)) == (-1,)
    assert len(inst.witness.f) == 2
    assert w_multiply(inst.u, inst.witness) == w_multiply(inst.witness, inst.v)


def test_z2_family_envelopes_hold():
    spec = FamilySpec(Z1, Z2, (1, 0), (0, 1), "z2")
    for n in (1, 2, 3):
        inst = z2_triangle_family(spec, n)
        assert inst.u_len.exact and 4 * n + 2 <= inst.u_len.value


def test_z2_min_conjugator_quadratic():
    spec = FamilySpec(Z1, Z2, (1, 0), (0, 1), "z2")
    for n in (1, 2):
        scan = z2_min_conjugator(spec, n)
        assert scan.min_length is not None
        assert scan.offfamily_clean
        assert scan.min_length.lower >= n * n + n


@pytest.mark.parametrize("base", [Z2, HeisenbergHandle(), FreeHandle(2)], ids=lambda B: B.kind)
def test_length_floor_is_sound_in_both_travel_regimes(base):
    rng = random.Random(2024)
    steps = [g for _, g in base.gen_steps()]

    def near():
        acc = base.identity
        for _ in range(rng.randint(0, 6)):
            acc = base.multiply(acc, rng.choice(steps))
        return acc

    regimes = set()
    for exact_max in (9, 3):
        for _ in range(40):
            pairs = [(near(), (rng.choice([-2, -1, 1, 2]),)) for _ in range(rng.randint(0, 8))]
            w = wreath_element(Z1, base, pairs, near())
            with using(RunConfig(travel_exact_max=exact_max)):
                m = w_length(w)
            regimes.add(m.exact)
            assert w_length_floor(w) <= m.lower
    assert regimes == {True, False}


@pytest.mark.parametrize("x,y", [((1, 0), (0, 1)), ((0, -1), (1, 0)), ((1, 1), (1, -1)), ((1, 0), (1, 1))])
def test_triangle_lengths_are_certified_past_the_dp(x, y):
    # 2n + 1 points on a line: the detour bound certifies |u| and |v| past
    # the subset DP, so the envelope checks run without widening the config
    spec = FamilySpec(Z1, Z2, x, y, "z2")
    for n in range(1, 15):
        inst = z2_triangle_family(spec, n)
        assert inst.u_len.exact and inst.v_len.exact


def _exhaustive_min(inst, x, n):
    """Reference: measure the verified conjugator at every base part x^k,
    |k| <= 4n + 10, in ascending k; the first minimum by value wins."""
    B = inst.u.base
    found = (conjugator_for_z(inst.u, inst.v, B.power(x, k)) for k in range(-4 * n - 10, 4 * n + 11))
    return min((w_length(w) for w in found if w is not None), key=lambda m: m.value)


@pytest.mark.parametrize("x,y", [((1, 0), (0, 1)), ((0, -1), (1, 0))])
def test_z2_selection_equals_exhaustive(x, y):
    spec = FamilySpec(Z1, Z2, x, y, "z2")
    for n in range(1, 6):
        inst = z2_triangle_family(spec, n)
        scan = z2_min_conjugator(spec, n)
        assert scan.min_length == _exhaustive_min(inst, y, n)
        assert scan.bound == n * n + n


@pytest.mark.parametrize(
    "B,x,y,ns",
    [(Z2, (1, 0), (0, 1), range(1, 6)), (HeisenbergHandle(), (0, 0, 1), (1, 0, 0), range(1, 9))],
    ids=["Zr", "heisenberg"],
)
def test_central_selection_equals_exhaustive(B, x, y, ns):
    spec = FamilySpec(Z1, B, x, y, "central")
    for n in ns:
        inst = central_family(spec, n)
        scan = central_family_min_conjugator(spec, n)
        assert scan.min_length == _exhaustive_min(inst, x, n)
        assert scan.bound == 4 * inst.delta


def test_z2_selection_skips_far_witnesses(monkeypatch):
    spec = FamilySpec(Z1, Z2, (1, 0), (0, 1), "z2")
    inst = z2_triangle_family(spec, 6)
    measured = []

    def counting_w_length(u):
        measured.append(u)
        return w_length(u)

    monkeypatch.setattr(clf, "w_length", counting_w_length)
    scan = z2_min_conjugator(spec, 6)
    witnesses = [u for u in measured if u not in (inst.u, inst.v)]
    assert scan.witnesses == 25
    assert len(witnesses) <= 12


def test_first_witness_scan_trivial_pair():
    u = wreath_element(Z1, Z2, [], (0, 0))
    w = first_witness_scan(u, u)
    assert w is not None and w_length(w).value == 0


def test_clf_scan_rows_and_csv():
    rows = clf_scan(Z1, Z2, samples=25, n_max=8, seed=77)
    assert len(rows) == 25
    for row in rows:
        assert row.measured <= row.bound or not row.exact
        assert row.seed == 77
    csv = rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 26
    n, measured, bound, exact, wl, seed = lines[1].split(",")
    assert int(seed) == 77 and exact in ("0", "1")


def test_clf_scan_deterministic():
    a = rows_to_csv(clf_scan(Z1, Z2, samples=10, n_max=8, seed=5))
    b = rows_to_csv(clf_scan(Z1, Z2, samples=10, n_max=8, seed=5))
    assert a == b


def test_clf_scan_reaches_n_max_zero():
    # every draw has u = e (zero generators) with probability 1/4, and then
    # n = 0, so any n_max >= 0 is reachable and the scan ends
    rows = clf_scan(Z1, Z2, samples=20, n_max=0, seed=3)
    assert len(rows) == 20
    assert all((r.n, r.measured, r.exact) == (0, 0, True) for r in rows)


def test_inert_pairs_reduce_to_base_conjugacy():
    # lamp-free pairs over a nonabelian base: the minimal wreath conjugator
    # is a minimal base conjugator
    S3 = PermHandle(3)
    rows = clf_scan(Z1, Z2, samples=5, n_max=6, seed=9)  # smoke the abelian path
    assert all(r.bound >= r.measured for r in rows if r.exact)
    swap = S3.generators()[0][1]
    cyc = S3.generators()[1][1]
    other = S3.multiply(S3.multiply(cyc, swap), S3.invert(cyc))
    u = wreath_element(Z1, S3, [], swap)
    v = wreath_element(Z1, S3, [], other)
    w = first_witness_scan(u, v)
    assert w is not None and not w.f
