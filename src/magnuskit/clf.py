"""Experiment harness: distortion scans, conjugacy-length scans, and the
two explicit conjugator-length lower-bound families.

Distortion delta_<x>(n) = max { m : |x^m| <= n } is read off the exact
lengths of x, ..., x^W, W = B.distortion_window(x, n) the cap the group
derives from a lower bound on |x^m|; a finite-order x is rejected.

The two families pin down lower bounds for conjugator length in A wr B:

* central family - for x of infinite order in the centre of B and some y
  commuting with x whose square stays outside <x>, the pair
  u = ({e, y} -> a, x) and v = ({x^-delta, x^delta y} -> a, x) is conjugate,
  but any conjugator carries at least 2*delta(n) lamps, where delta is the
  distortion of <x> at n.

* Z^2 triangle family - for x, y spanning a copy of Z^2 in B, the pair
  u = (segment along <x> -> a, y) and v = (the diagonal shift -> a, y) is
  conjugate only through base parts y^k, and the conjugator lamps fill a
  triangle with quadratically many cells, giving a conjugator length of at
  least n^2 + n from linearly sized inputs.

Both scans find the shortest conjugator the same way (_min_conjugator).
The base part b of u has infinite order and the pair is not inert, so
every conjugator is a power of u times one of the witnesses of
wreath.conjugators, one per candidate base part; their base parts tell
whether every conjugator's base part lies in <b> (offfamily_clean).  From
the first witness w at a power of b, wreath.step_conjugators walks u^k w
out to the radius wreath.step_radius proves, past which every conjugator
is longer than w.

Scans are seed-deterministic; CSV rows carry the seed.
"""

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .config import DEFAULT, RunConfig
from .errors import InvariantViolation
from .groups import GroupHandle
from .wreath import (
    Measure,
    WreathElement,
    WreathGroup,
    conjugacy_test,
    conjugators,
    identity_element,
    is_inert,
    step_conjugators,
    step_radius,
    upper_bound_formula,
    w_conjugate,
    w_length,
    w_length_floor,
    w_multiply,
    wreath_element,
)


@dataclass
class ScanRow:
    n: int
    measured: int
    bound: int
    exact: bool
    witness_len: int
    seed: int


CSV_HEADER = "n,measured,bound,exact,witness_len,seed"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.n},{row.measured},{row.bound},{int(row.exact)},{row.witness_len},{row.seed}"
        )
    return "\n".join(lines) + "\n"


# -- cyclic subgroup distortion ------------------------------------------------


def _distortions(B: GroupHandle, x, n_max: int) -> list:
    """[delta(0), ..., delta(n_max)] from one pass over x, ..., x^W, W =
    B.distortion_window(x, n_max): every m > W has |x^m| > n_max, so no
    later power enters a row.  A finite-order x has unbounded delta."""
    if B.order(x) is not None:
        raise ValueError("x has finite order: its powers stay in a ball, so delta is unbounded")
    last = [0] * (max(n_max, 0) + 1)  # last[L]: the largest m with |x^m| = L
    e = acc = B.identity
    for m in range(1, B.distortion_window(x, n_max) + 1):
        acc = B.multiply(acc, x)
        length = B.distance(e, acc)
        if length <= n_max:
            last[length] = m
    return list(accumulate(last, max))


def cyclic_distortion(B: GroupHandle, x, n: int) -> int:
    """delta_<x>(n) = max { m : |x^m| <= n }, exactly, over the window of
    powers that B derives for x.  A length beyond the config's exact range
    raises BeyondCapError: it says nothing about |x^m| <= n."""
    return _distortions(B, x, n)[-1]


def distortion_scan(B: GroupHandle, x, n_max: int, seed: int = 0) -> list[ScanRow]:
    """Rows (n, delta(n), 2n, ...) for n = 1..n_max, all read from one
    pass up to B's window at n_max; witness_len records the realizing
    power."""
    deltas = _distortions(B, x, n_max)
    return [
        ScanRow(n, deltas[n], 2 * n, True, deltas[n], seed)
        for n in range(1, n_max + 1)
    ]


# -- family specifications -------------------------------------------------


@dataclass
class FamilySpec:
    """Base data for a lower-bound family.

    ``kind`` is "central" (x central of infinite order, y^2 outside <x>) or
    "z2" (x and y spanning a copy of Z^2).  The lamp value a is a generator
    of A.
    """

    A: GroupHandle
    B: GroupHandle
    x: object
    y: object
    kind: str

    def lamp_value(self):
        return self.A.generators()[0][1]

    def validate(self):
        B = self.B
        if self.kind not in ("central", "z2"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if B.order(self.x) is not None:
            raise ValueError("x must have infinite order")
        if B.key(B.multiply(self.x, self.y)) != B.key(B.multiply(self.y, self.x)):
            raise ValueError("x and y must commute")
        if self.kind == "central":
            y2 = B.multiply(self.y, self.y)
            if B.power_membership(y2, self.x) is not None:
                raise ValueError("y^2 must lie outside <x>")
        else:
            if B.order(self.y) is not None:
                raise ValueError("y must have infinite order")
            if (
                B.power_membership(self.y, self.x) is not None
                or B.power_membership(self.x, self.y) is not None
            ):
                raise ValueError("x and y must be independent")


@dataclass
class FamilyInstance:
    u: WreathElement
    v: WreathElement
    witness: WreathElement
    delta: int
    u_len: Measure
    v_len: Measure


def _verify_witness(u, v, witness):
    if w_multiply(u, witness) != w_multiply(witness, v):
        raise InvariantViolation("family witness failed the conjugation identity")


def central_family(spec: FamilySpec, n: int, config: RunConfig = DEFAULT) -> FamilyInstance:
    """The distorted-centre conjugate pair at parameter n, with its
    constructed witness (h, e) verified exactly and the size sandwich
    n <= |u|+|v| <= 4n + 4|y| + 2|x| + 4 checked."""
    spec.validate()
    A, B = spec.A, spec.B
    x, y, a = spec.x, spec.y, spec.lamp_value()
    delta = cyclic_distortion(B, x, n)
    e = B.identity

    u = wreath_element(A, B, [(e, a), (y, a)], x)
    v = wreath_element(
        A,
        B,
        [(B.power(x, -delta), a), (B.multiply(B.power(x, delta), y), a)],
        x,
    )
    pairs = []
    for i in range(delta):
        pairs.append((B.multiply(B.power(x, i), y), a))
    for i in range(1, delta + 1):
        pairs.append((B.power(x, -i), A.invert(a)))
    witness = wreath_element(A, B, pairs, e)
    _verify_witness(u, v, witness)

    u_len = w_length(u, config)
    v_len = w_length(v, config)
    if u_len.exact and v_len.exact:
        total = u_len.value + v_len.value
        lx = B.distance(e, x)
        ly = B.distance(e, y)
        if not (n <= total <= 4 * n + 4 * ly + 2 * lx + 4):
            raise InvariantViolation(
                f"central family size sandwich violated at n={n}: |u|+|v|={total}"
            )
    return FamilyInstance(u, v, witness, delta, u_len, v_len)


@dataclass
class MinScanResult:
    """A family scan at one n: the shortest verified conjugator's length
    along the family's cyclic subgroup, the first in ascending power on a
    tie (None without witnesses), the count of conjugators stepped,
    whether no base part outside that subgroup admits one, and the bound
    asserted (4*delta central, n^2 + n z2)."""

    min_length: Optional[Measure]
    witnesses: int
    offfamily_clean: bool
    bound: int


def _min_conjugator(inst: FamilyInstance, bound: int, config: RunConfig) -> MinScanResult:
    """The family's scan result: the shortest conjugator (by value) at a
    power of b = inst.u.b, raising when a measured lower bound is below
    ``bound``.

    Every conjugator is a power of u times a witness of wreath.conjugators
    (the pair is not inert, b of infinite order), and the witnesses' base
    parts decide offfamily_clean.  Those at powers of b are u^k w, w the
    first witness at one: w is measured, and the rest are stepped in
    ascending k out to wreath.step_radius and measured in (w_length_floor,
    k) order up to the first floor above the best value.  value >= lower
    >= floor, so no unmeasured conjugator beats or ties the best or has a
    lower bound below its value: the answer is a measure-everything
    ``min``'s.
    """
    u, v = inst.u, inst.v
    found = [(u.base.power_membership(w.b, u.b), w) for w in conjugators(u, v)]
    clean = all(j is not None for j, _ in found)
    w = next((w for j, w in found if j is not None), None)
    if w is None:
        return MinScanResult(None, 0, clean, bound)
    first = w_length(w, config)
    r = step_radius(u, w, first.value)
    stepped = [*reversed(step_conjugators(u, v, w, -r)), w, *step_conjugators(u, v, w, r)]
    best, low = (first.value, r, first), first.lower  # best: (value, index, length)
    for floor, i in sorted((w_length_floor(c), i) for i, c in enumerate(stepped) if i != r):
        if floor > best[0]:
            break
        m = w_length(stepped[i], config)
        low = min(low, m.lower)
        best = min(best, (m.value, i, m))  # indices differ: lengths are never compared
    # the family's reason for existing; the sound lower field makes this
    # safe to assert even for witnesses whose travel cost went heuristic
    if low < bound:
        raise InvariantViolation(f"family conjugator lower bound {low} < {bound}")
    return MinScanResult(best[2], len(stepped), clean, bound)


def central_family_min_conjugator(
    spec: FamilySpec,
    n: int,
    config: RunConfig = DEFAULT,
) -> MinScanResult:
    """Shortest verified conjugator along <x> for the central family at n
    (_min_conjugator), asserting the bound 4*delta(n)."""
    inst = central_family(spec, n, config)
    return _min_conjugator(inst, 4 * inst.delta, config)


def z2_triangle_family(spec: FamilySpec, n: int, config: RunConfig = DEFAULT) -> FamilyInstance:
    """The triangle conjugate pair at parameter n over a Z^2 inside B, with
    its witness (h, e) verified exactly and the size envelopes
    4n+2 <= |u| <= 4n|x| + |y| + 2n + 1 (and the xy analogue for v) checked
    wherever the lengths are exact.

    Supports have 2n+1 points on a line, so past the config's exact travel
    threshold the detour lower bound still certifies |u| and |v| for the
    axis and diagonal pairs over Z^2; the caller's config is used as given.
    """
    spec.validate()
    A, B = spec.A, spec.B
    x, y, a = spec.x, spec.y, spec.lamp_value()
    e = B.identity

    u = wreath_element(A, B, [(B.power(x, i), a) for i in range(-n, n + 1)], y)
    v = wreath_element(
        A,
        B,
        [
            (B.multiply(B.power(x, i), B.power(y, i)), a)
            for i in range(-n, n + 1)
        ],
        y,
    )
    pairs = []
    for i in range(1, n + 1):
        for j in range(0, i):
            pairs.append((B.multiply(B.power(x, i), B.power(y, j)), a))
    for i in range(-n, 0):
        for j in range(i, 0):
            pairs.append((B.multiply(B.power(x, i), B.power(y, j)), A.invert(a)))
    witness = wreath_element(A, B, pairs, e)
    _verify_witness(u, v, witness)

    u_len = w_length(u, config)
    v_len = w_length(v, config)
    lx = B.distance(e, x)
    ly = B.distance(e, y)
    lxy = B.distance(e, B.multiply(x, y))
    if u_len.exact and not (4 * n + 2 <= u_len.value <= 4 * n * lx + ly + 2 * n + 1):
        raise InvariantViolation(f"triangle family |u| envelope violated at n={n}: {u_len.value}")
    if v_len.exact and not (4 * n + 2 <= v_len.value <= 4 * n * lxy + ly + 2 * n + 1):
        raise InvariantViolation(f"triangle family |v| envelope violated at n={n}: {v_len.value}")
    return FamilyInstance(u, v, witness, n, u_len, v_len)


def z2_min_conjugator(spec: FamilySpec, n: int, config: RunConfig = DEFAULT) -> MinScanResult:
    """Shortest verified conjugator along <y> for the triangle family at n
    (_min_conjugator), asserting the quadratic bound n^2 + n.  Witness
    supports are quadratic, so lengths may carry upper-bound flags; the
    lamp count alone carries the bound, so the sound lower fields do.
    """
    return _min_conjugator(z2_triangle_family(spec, n, config), n * n + n, config)


# -- randomized conjugacy-length scan --------------------------------------


def random_wreath_element(
    A: GroupHandle, B: GroupHandle, rng: random.Random, steps: int
) -> WreathElement:
    """A short random product of wreath generators; seed-deterministic."""
    gens = [g for _, g in WreathGroup(A, B).gen_steps()]
    acc = identity_element(A, B)
    for _ in range(steps):
        acc = w_multiply(acc, rng.choice(gens))
    return acc


def first_witness_scan(u, v):
    """conjugacy_test's verified conjugator, or None.  Used where any
    witness upper-bounds the minimum."""
    return conjugacy_test(u, v).witness


def clf_scan(
    A: GroupHandle,
    B: GroupHandle,
    samples: int,
    n_max: int,
    seed: int,
    config: RunConfig = DEFAULT,
) -> list[ScanRow]:
    """Generate conjugate pairs (u, gamma^-1 u gamma), u and gamma products
    of at most three generators, find a verified conjugator for each, and
    compare its length against the closed-form bound; rows record the
    comparison and assert measured <= bound.  A negative n_max admits no
    pair (lengths are nonnegative), so it is rejected instead of drawing
    forever."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    rng = random.Random(seed)
    rows = []
    produced = 0
    while produced < samples:
        u = random_wreath_element(A, B, rng, rng.randint(0, 3))
        gamma = random_wreath_element(A, B, rng, rng.randint(0, 3))
        v = w_conjugate(u, gamma)
        lu, lv = w_length(u, config), w_length(v, config)
        if not (lu.exact and lv.exact):
            continue
        n = lu.value + lv.value
        if n > n_max:
            continue
        produced += 1
        witness = first_witness_scan(u, v)
        if witness is None:
            raise InvariantViolation("constructed conjugate pair lost its conjugator")
        wlen = w_length(witness, config)
        # an inert pair moves only the base part B.conjugator(b, c): the
        # identity in abelian B, some conjugator (not always a shortest) otherwise
        P = n if is_inert(u) else 7 * n
        bound = upper_bound_formula(n, P, order=B.order(u.b))
        if wlen.exact and wlen.value > bound:
            raise InvariantViolation(
                f"observed conjugator length {wlen.value} exceeds bound {bound} at n={n}"
            )
        rows.append(ScanRow(n, wlen.value, bound, wlen.exact, wlen.value, seed))
    return rows
