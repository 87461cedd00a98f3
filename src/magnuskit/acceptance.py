"""The acceptance suite: every shipped quantitative claim, checked at desk
scale with independent oracles.

Each check is a zero-argument callable returning a detail string; failures
raise InvariantViolation (or AssertionError) with a description.  The
registry drives both `magnuskit selftest` and the pytest acceptance tests,
which also enforce the per-check time budgets where one is stated.

Oracles used here are deliberately separate code paths from what they
check: breadth-first distances against length formulas, graph walks
against ring derivatives, and exhaustive conjugation against the coset
projection machinery.
"""

import random
import time
from functools import reduce
from operator import mul

from .config import DEFAULT, using
from .errors import InvariantViolation
from .fox import free_handle, projected_derivatives, verify_fundamental
from .groups import ZrHandle, HeisenbergHandle, ball_layers
from .magnus import (
    _support_components,
    bilipschitz_check,
    geodesic_length,
    magnus_embed,
    solvable_conjugacy_test,
    solvable_group,
)
from .ring import RingElement
from .wreath import (
    WreathGroup,
    conjugacy_test,
    conjugator_for_z,
    upper_bound_formula,
    w_conjugate,
    w_length,
    w_multiply,
    wreath_element,
)
from .clf import (
    FamilySpec,
    central_family,
    central_family_min_conjugator,
    cyclic_distortion,
    first_witness_scan,
    random_wreath_element,
    z2_min_conjugator,
)
from .words import FreeWord, abelianized, commutator, gen, nested_commutator_sample, random_word


def _require(ok, message):
    if not ok:
        raise InvariantViolation(message)


def _random_ring_element(F, rng, terms, max_len):
    pairs = []
    for _ in range(rng.randint(1, terms)):
        w = random_word(F.rank, rng.randint(0, max_len), rng)
        pairs.append((w, rng.randint(-3, 3)))
    return RingElement.from_pairs(F, pairs)


# 1 ---------------------------------------------------------------------------


def check_fundamental_formula():
    """Residual of the fundamental identity vanishes for seeded random ring
    elements over ranks 2 and 3."""
    count = 0
    for rank in (2, 3):
        F = free_handle(rank)
        rng = random.Random(101 + rank)
        for _ in range(1000):
            a = _random_ring_element(F, rng, 3, 20)
            _require(
                verify_fundamental(a).is_zero,
                f"fundamental identity residual nonzero at rank {rank}",
            )
            count += 1
    return f"{count} random ring elements, residual identically zero"


# 2 ---------------------------------------------------------------------------


def check_magnus_kernel():
    """Depth-d nested commutators embed trivially; words certified outside
    the kernel embed nontrivially.

    The nontriviality certificates are independent of the embedding: a
    nonzero exponent-sum vector keeps a word outside the derived subgroup,
    and commutator conjugates with nonzero walker counts (d=2) or nonzero
    abelianised derivatives (d=3) stay outside the second derived subgroup.
    """
    from .groups import edge_traversal_counts

    details = []
    for d in (2, 3):
        Q = solvable_group(2, d - 1)
        rng = random.Random(200 + d)
        produced = 0
        while produced < 200:
            w = nested_commutator_sample(2, d, rng, base_length=3)
            if not len(w):
                continue  # resample: trivial words test nothing
            _require(
                magnus_embed(w, Q).is_identity,
                f"depth-{d} nested commutator embedded nontrivially",
            )
            produced += 1
        produced = 0
        while produced < 200:
            w = random_word(2, rng.randint(1, 14), rng)
            if produced % 2:
                # zero abelianisation: a conjugated commutator, certified
                # outside the second derived subgroup independently of the
                # embedding (graph walker at d=2, abelianised derivative at
                # d=3)
                g = random_word(2, 6, rng)
                c = g * FreeWord(2, (1, 2, -1, -2)) * g.inverse()
                if d == 2:
                    counts, _, _ = edge_traversal_counts(ZrHandle(2), c)
                    if not counts:
                        continue
                else:
                    ders, _ = projected_derivatives(c, ZrHandle(2))
                    if all(der.is_zero for der in ders):
                        continue
                w = c
            elif abelianized(w) == (0, 0):
                continue
            _require(
                not magnus_embed(w, Q).is_identity,
                f"word outside the kernel embedded trivially at d={d}",
            )
            produced += 1
        details.append(f"d={d}: 200 kernel + 200 non-kernel words")
    return "; ".join(details)


# 3 ---------------------------------------------------------------------------


def check_embed_homomorphism():
    """The embedding respects multiplication on random pairs at d=2,3."""
    for d in (2, 3):
        Q = solvable_group(2, d - 1)
        rng = random.Random(300 + d)
        for _ in range(1000):
            u = random_word(2, rng.randint(0, 10), rng)
            v = random_word(2, rng.randint(0, 10), rng)
            _require(
                magnus_embed(u * v, Q) == w_multiply(magnus_embed(u, Q), magnus_embed(v, Q)),
                f"embedding not multiplicative at d={d}",
            )
    return "1000 random pairs at each of d=2,3"


# 4 ---------------------------------------------------------------------------


def check_wreath_length_oracle():
    """The metric formula matches breadth-first distance on whole balls of
    Z wr Z (radius 5) and Z^2 wr Z^2 (radius 4)."""
    sizes = []
    for r, radius in ((1, 5), (2, 4)):
        G = WreathGroup(ZrHandle(r), ZrHandle(r))
        count = 0
        for dist, layer in ball_layers(G, radius):
            for _, u in layer:
                m = w_length(u)
                _require(m.exact, "formula length lost exactness inside the ball")
                _require(
                    m.value == dist,
                    f"formula length {m.value} != BFS distance {dist} for {u!r}",
                )
                count += 1
        sizes.append(f"rank {r}: {count} elements to radius {radius}")
    return "; ".join(sizes)


# 5 ---------------------------------------------------------------------------


def _solvable_ball(radius):
    S = solvable_group(2, 2)
    return S, list(ball_layers(S, radius))


def check_geodesic_formula_oracle():
    """The flow-length formula matches breadth-first distance on the whole
    radius-6 ball of S_{2,2}."""
    S, layers = _solvable_ball(6)
    count = 0
    for dist, layer in layers:
        for _, g in layer:
            m = geodesic_length(g)
            _require(m.exact, "geodesic length lost exactness inside the ball")
            _require(
                m.value == dist,
                f"flow length {m.value} != BFS distance {dist} for {g!r}",
            )
            count += 1
    return f"{count} elements of the radius-6 ball"


# 6 ---------------------------------------------------------------------------


def check_bilipschitz():
    """Across the radius-6 ball of S_{2,2}, the embedded length stays within
    a factor of two of the intrinsic length."""
    S, layers = _solvable_ball(6)
    count = 0
    for _, layer in layers:
        for _, g in layer:
            intrinsic, embedded, ok = bilipschitz_check(g)
            _require(
                ok,
                f"length pair ({intrinsic.value}, {embedded.value}) violates the factor-2 sandwich",
            )
            count += 1
    return f"{count} elements, zero sandwich violations"


# 7 ---------------------------------------------------------------------------


def _brute_force_conjugate(G, u, v, radius):
    """Oracle: search gamma in ball(G, radius) with u*gamma = gamma*v."""
    for _, layer in ball_layers(G, radius):
        for _, gamma in layer:
            if w_multiply(u, gamma) == w_multiply(gamma, v):
                return gamma
    return None


def check_conjugacy_against_brute_force():
    """The projection-based decision agrees with exhaustive conjugation by
    ball elements for every pair in the radius-2 ball of Z wr Z."""
    G = WreathGroup(ZrHandle(1), ZrHandle(1))
    elements = [u for _, layer in ball_layers(G, 2) for _, u in layer]
    pairs = agreements = 0
    for u in elements:
        for v in elements:
            pairs += 1
            res = conjugacy_test(u, v)
            brute = _brute_force_conjugate(G, u, v, 4)
            _require(
                res.conjugate == (brute is not None),
                f"decision mismatch for {u!r} vs {v!r}",
            )
            if res.conjugate:
                _require(
                    w_multiply(u, res.witness) == w_multiply(res.witness, v),
                    "returned witness does not conjugate",
                )
            agreements += 1
    return f"{pairs} pairs, decisions agree, all witnesses verify"


# 8 / 9 -------------------------------------------------------------------------


def _seeded_pairs_z_wr_z2(count, seed):
    A, B = ZrHandle(1), ZrHandle(2)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        u = random_wreath_element(A, B, rng, rng.randint(0, 5))
        gamma = random_wreath_element(A, B, rng, rng.randint(0, 5))
        v = w_conjugate(u, gamma)
        out.append((u, v, gamma))
    return out


def check_conjugator_construction():
    """For seeded conjugate pairs in Z wr Z^2 the coset-product conjugator
    at the known base part verifies; after a lamp perturbation that breaks
    one coset product it is absent at that base part."""
    A, B = ZrHandle(1), ZrHandle(2)
    pairs = _seeded_pairs_z_wr_z2(500, 808)
    for u, v, gamma in pairs:
        witness = conjugator_for_z(u, v, gamma.b)
        _require(witness is not None, "known base part rejected for a conjugate pair")
    broken = 0
    rng = random.Random(809)
    for u, v, gamma in pairs:
        spot = B.from_json([rng.randint(-3, 3), rng.randint(-3, 3)])
        bad = w_multiply(v, wreath_element(A, B, [(spot, (1,))], B.identity))
        witness = conjugator_for_z(u, bad, gamma.b)
        _require(
            witness is None,
            "perturbed pair still admitted a conjugator at the stale base part",
        )
        broken += 1
    return f"500 conjugate pairs verified; {broken} perturbed pairs rejected"


def check_conjugator_upper_bound():
    """For the same seeded pairs, a found conjugator obeys the closed-form
    bound (n+1) * 7n * (14n+1)."""
    pairs = _seeded_pairs_z_wr_z2(500, 808)
    worst = 0.0
    for u, v, _ in pairs:
        n = (w_length(u) + w_length(v)).value
        witness = first_witness_scan(u, v)
        _require(witness is not None, "conjugate pair lost its conjugator in the scan")
        wl = w_length(witness)
        _require(wl.exact, "witness length lost exactness")
        bound = upper_bound_formula(n, 7 * n)
        _require(
            wl.value <= bound,
            f"witness length {wl.value} exceeds bound {bound} at n={n}",
        )
        if bound:
            worst = max(worst, wl.value / bound)
    return f"500 pairs, worst measured/bound ratio {worst:.4f}"


# 10 ---------------------------------------------------------------------------


def check_distortion():
    """Cyclic subgroups of S_{2,2} stay at most 2-distorted for the three
    scanned generators up to n=6; the Heisenberg centre is at least
    4-distorted at n=8."""
    S = solvable_group(2, 2)
    for letters in ((1,), (1, 2), (1, 2, -1, -2)):
        x = S.from_word(FreeWord(2, letters))
        for n in range(1, 7):
            delta = cyclic_distortion(S, x, n)
            _require(
                delta <= 2 * n,
                f"distortion {delta} > 2n at n={n} for word {letters}",
            )
    H = HeisenbergHandle()
    z = H.from_word(FreeWord(2, (1, 2, -1, -2)))
    delta8 = cyclic_distortion(H, z, 8)
    _require(delta8 >= 4, f"Heisenberg central distortion at 8 is {delta8} < 4")
    return f"three cyclic subgroups of S_2,2 within 2n; Heisenberg delta(8)={delta8}"


# 11 ---------------------------------------------------------------------------


def check_central_family_lower_bound():
    """Minimal verified conjugators for the central family: at least 4n over
    Z^2 for n <= 4, and at least 4*delta(8) over the Heisenberg group."""
    A = ZrHandle(1)
    B = ZrHandle(2)
    spec = FamilySpec(A, B, (1, 0), (0, 1), "central")
    for n in range(1, 5):
        scan = central_family_min_conjugator(spec, n)
        _require(scan.min_length is not None, f"no conjugator found at n={n}")
        _require(scan.offfamily_clean, "a base part outside <x> admitted a conjugator")
        _require(
            scan.min_length.exact and scan.min_length.value >= 4 * n,
            f"minimal conjugator {scan.min_length.value} < 4n at n={n}",
        )
    H = HeisenbergHandle()
    x = (0, 0, 1)
    y = (1, 0, 0)
    hspec = FamilySpec(A, H, x, y, "central")
    n = 8
    delta = cyclic_distortion(H, x, n)
    inst = central_family(hspec, n)
    _require(
        len(inst.witness.f) == 2 * delta,
        f"constructed witness support {len(inst.witness.f)} != 2*delta(8)={2 * delta}",
    )
    scan = central_family_min_conjugator(hspec, n)
    _require(scan.min_length is not None, "no conjugator found over the Heisenberg base")
    _require(scan.offfamily_clean, "a Heisenberg base part outside <x> admitted a conjugator")
    _require(
        scan.min_length.exact and scan.min_length.value >= 4 * delta,
        f"Heisenberg minimal conjugator {scan.min_length.value} < 4*delta(8)={4 * delta}",
    )
    return f"Z^2 minima >= 4n for n<=4; Heisenberg minimum {scan.min_length.value} >= {4 * delta}"


# 12 ---------------------------------------------------------------------------


def check_triangle_family_lower_bound():
    """Minimal verified conjugators for the triangle family over Z wr Z^2
    grow at least quadratically (n^2 + n) for n <= 5, and the constructed
    pair sizes satisfy the linear envelopes."""
    spec = FamilySpec(ZrHandle(1), ZrHandle(2), (1, 0), (0, 1), "z2")
    for n in range(1, 6):
        scan = z2_min_conjugator(spec, n)  # builds the pair: envelope checks live inside
        _require(scan.min_length is not None, f"no conjugator found at n={n}")
        _require(scan.offfamily_clean, "an off-family base part admitted a conjugator")
        _require(
            scan.min_length.lower >= n * n + n,
            f"minimal conjugator lower bound {scan.min_length.lower} < n^2+n at n={n}",
        )
    return "minima >= n^2+n for n <= 5, envelopes hold"


# 13 ---------------------------------------------------------------------------


def check_solvable_clf_envelope():
    """For seeded conjugate pairs in S_{2,2} with n <= 8, the S_{2,2}
    length of a conjugator stays under the cubic envelope
    (56n^2+28n)(28n+1), and the decision's witness is its Magnus form."""
    S = solvable_group(2, 2)
    rng = random.Random(1300)
    produced = 0
    worst = 0.0
    while produced < 200:
        u = S.from_word(random_word(2, rng.randint(0, 3), rng))
        gamma = S.from_word(random_word(2, rng.randint(0, 3), rng))
        v = S.multiply(S.multiply(S.invert(gamma), u), gamma)
        n = geodesic_length(u).value + geodesic_length(v).value
        if n > 8:
            continue
        produced += 1
        conjugator = S.conjugator(u, v)
        _require(conjugator is not None, "conjugate pair lost its conjugator")
        witness = solvable_conjugacy_test(u, v).witness
        _require(witness.key() == conjugator.form.key(), "decision witness is not S.conjugator's form")
        wl = geodesic_length(conjugator)
        _require(wl.exact, "conjugator length lost exactness")
        bound = (56 * n * n + 28 * n) * (28 * n + 1)
        _require(
            wl.value <= bound,
            f"conjugator length {wl.value} exceeds {bound} at n={n}",
        )
        if bound:
            worst = max(worst, wl.value / bound)
    return f"200 pairs, worst measured/bound ratio {worst:.5f}"


# 14 ---------------------------------------------------------------------------


def check_not_conjugate_to_lamp_free():
    """Nontrivial embedded elements with nontrivial base part are never
    conjugate to the lamp-free element with the same base part."""
    Q = ZrHandle(2)
    rng = random.Random(1400)
    produced = 0
    while produced < 100:
        w = random_word(2, rng.randint(1, 12), rng)
        if abelianized(w) == (0, 0):
            continue
        img = magnus_embed(w, Q)
        produced += 1
        bare = wreath_element(img.lamp, Q, [], img.b)
        res = conjugacy_test(img, bare)
        _require(res.complete, "decision against the lamp-free form was not complete")
        _require(
            not res.conjugate,
            f"embedded image of {list(w.letters)} claimed conjugate to its lamp-free form",
        )
    return "100 embedded elements, zero false conjugacies"


# 15 ---------------------------------------------------------------------------


def check_lengths_below_words():
    """A word is a path to its element, so neither the lower bound of its
    length nor an exact length exceeds the word's length: seeded d = 3
    stars and products of conjugated depth-2 commutators, and
    one-component words at d = 2 and 4."""
    x1, x2 = gen(2, 1), gen(2, 2)
    y1, y2 = x1.inverse(), x2.inverse()
    cs = [commutator(commutator(x1, x2), commutator(x1, y2)), commutator(commutator(x1, x2), commutator(y1, x2)),
          commutator(commutator(x1, y2), commutator(y1, x2))]
    rng = random.Random(1500)
    products = [[(random_word(2, rng.randint(1, 5), rng), rng.choice(cs)) for _ in range(rng.randint(2, 4))]
                for _ in range(10)]
    # and the star, p = x1^k, x1^-k, x2^k, x2^-k
    products += [[(p, cs[0]) for p in (x1.power(k), x1.power(-k), x2.power(k), x2.power(-k))] for k in (2, 3)]
    words = {3: [reduce(mul, (p * c * p.inverse() for p, c in ps)) for ps in products]}
    for d, count in ((2, 20), (4, 10)):
        S, words[d] = solvable_group(2, d), []
        while len(words[d]) < count:
            w = random_word(2, rng.randint(1, 16), rng)
            if len(_support_components(S.from_word(w).form)[0]) == 1:
                words[d].append(w)
    flagged = 0
    for d, ws in words.items():
        for w in ws:
            m = geodesic_length(solvable_group(2, d).from_word(w))
            _require(m.lower <= len(w) and (not m.exact or m.value <= len(w)), f"{m} above |w| = {len(w)} at d={d}")
            flagged += not m.exact
    return f"{sum(map(len, words.values()))} words at d = 2, 3, 4: no length above its word, {flagged} flagged"


ACCEPTANCE = [
    ("fundamental-formula", check_fundamental_formula, 5.0),
    ("magnus-kernel", check_magnus_kernel, 30.0),
    ("embed-homomorphism", check_embed_homomorphism, None),
    ("wreath-length-oracle", check_wreath_length_oracle, 120.0),
    ("geodesic-formula-oracle", check_geodesic_formula_oracle, 300.0),
    ("bilipschitz", check_bilipschitz, None),
    ("conjugacy-brute-force", check_conjugacy_against_brute_force, None),
    ("conjugator-construction", check_conjugator_construction, None),
    ("conjugator-upper-bound", check_conjugator_upper_bound, None),
    ("distortion", check_distortion, None),
    ("central-family-lower-bound", check_central_family_lower_bound, None),
    ("triangle-family-lower-bound", check_triangle_family_lower_bound, None),
    ("solvable-clf-envelope", check_solvable_clf_envelope, None),
    ("not-conjugate-to-lamp-free", check_not_conjugate_to_lamp_free, None),
    ("lengths-below-words", check_lengths_below_words, None),
]


def run_check(name):
    """Run one named check at the shipped DEFAULT; returns (ok, detail, elapsed_seconds)."""
    fn = next(f for n, f, _ in ACCEPTANCE if n == name)
    start = time.perf_counter()
    try:
        with using(DEFAULT):
            detail = fn()
        return True, detail, time.perf_counter() - start
    except AssertionError as exc:
        return False, str(exc), time.perf_counter() - start


def run_all(names=None, report=print):
    """Run the acceptance suite, printing one pass/fail line per criterion.
    Returns True when everything passed; unknown names are rejected
    before anything runs."""
    unknown = sorted(set(names or ()) - {name for name, _, _ in ACCEPTANCE})
    if unknown:
        raise ValueError(f"unknown check names: {', '.join(unknown)}")
    ok_all = True
    for name, _, budget in ACCEPTANCE:
        if names and name not in names:
            continue
        ok, detail, elapsed = run_check(name)
        status = "PASS" if ok else "FAIL"
        if ok and budget is not None and elapsed > budget:
            status, ok = "SLOW", False
            detail += f" (over {budget:.0f}s budget)"
        report(f"{status}  {name:32s} {elapsed:7.2f}s  {detail}")
        ok_all = ok_all and ok
    return ok_all
