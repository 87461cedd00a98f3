"""Restricted wreath products A wr B over arbitrary group handles:
arithmetic, the exact word metric, and the conjugacy machinery.

An element is a pair (f, b): a finite-support function f from B to A plus
a base point b, with multiplication (f,b)(g,c) = (f g^b, bc) where
g^b(x) = g(b^-1 x).  With the standard generating set (one generator per
base generator, one lamp generator per A generator at the identity
position) the word length is

    |(f, b)| = K(Supp f, b) + sum_x |f(x)|_A

where K(S, b) is the length of the shortest Cayley path in B from the
identity to b visiting every point of S.  K is a path-TSP; path_tsp solves
it exactly by a subset dynamic program up to a configured size and by
nearest-neighbour + 2-opt (flagged as an upper bound) beyond it.  The
free-solvable connection cost of the magnus module uses the same kernel.

Conjugacy is decided through coset projections: fix b and a right-coset
representative t of <b>; the ordered product of the lamp values of f along
the coset (higher power of b multiplying on the left), optionally shifted
by z, is the invariant pi_t^(z)(f).  Support points are grouped into
cosets by power membership alone: p lies in <b>t iff p t^-1 is a power of
b, which also gives p's exponent along the coset.  Two elements (f,b),
(g,c) are conjugate iff some z with bz = zc matches the projections on
every coset (equality for b of infinite order, A-conjugacy for finite
order), and the conjugator (h, z) is assembled from prefix products along
each coset.
One generator, base_part_candidates, supplies the base parts z to try: a
conjugator must carry a nontrivially projecting coset of g onto a coset
through Supp f, which leaves at most |Supp f| candidates up to powers of b,
and pairs whose projections are all trivial reduce to conjugacy in B.
Every returned conjugator is re-verified against u*(h,z) = (h,z)*v, so a
wrong ordering convention cannot pass silently.

An element's key is a FormKey: the pair of its base key and the
frozenset of its (position key, lamp key) cells.  A frozenset caches its
hash, so hashing a key of a nested form (a Magnus form of S_{r,d} has
S_{r,d-1} keys as positions) costs O(d) instead of a walk over its cells,
and nothing sorts cells to build a key.  Keys are ordered by content
(base key, then the sorted cells), so supports, JSON cells and
breadth-first layers come out in one order on every build and hash
seed.  A key's repr is short; element_to_json spells out the full normal
form.
"""

from dataclasses import dataclass
from math import lcm
from typing import NamedTuple, Optional

from .config import DEFAULT, RunConfig
from .errors import BeyondCapError, InvariantViolation
from .groups import GroupHandle


class Measure(NamedTuple):
    """An integer quantity with exactness tracking.

    ``value`` is exact when ``exact`` is True, otherwise an upper bound;
    ``lower`` is always a sound lower bound (== value when exact).
    """

    value: int
    exact: bool
    lower: int

    @classmethod
    def exactly(cls, v: int) -> "Measure":
        return cls(v, True, v)

    def __add__(self, other):
        if isinstance(other, int):
            return Measure(self.value + other, self.exact, self.lower + other)
        return Measure(
            self.value + other.value,
            self.exact and other.exact,
            self.lower + other.lower,
        )


class FormKey(tuple):
    """The canonical key of a wreath element: the pair (base key, cells),
    cells the frozenset of (position key, lamp key) pairs of the support.

    Hashing and equality are the tuple's own.  Two cell sets whose cached
    hashes differ compare unequal at once; equal hashes fall through to
    the exact content, since unequal keys can share a hash (CPython
    hashes -1 and -2 alike).  Keys are ordered by content, the base key
    and then the cells in sorted order, so the order does not depend on
    hashes.  The repr is short (base key, cell count and hash);
    element_to_json spells out the full normal form.
    """

    __slots__ = ()

    def __new__(cls, base, cells: frozenset):
        return tuple.__new__(cls, (base, cells))

    def __lt__(self, other):
        if self[0] != other[0]:
            return self[0] < other[0]
        return sorted(self[1]) < sorted(other[1])

    def __gt__(self, other):
        return other.__lt__(self)

    def __le__(self, other):
        return not other.__lt__(self)

    def __ge__(self, other):
        return not self.__lt__(other)

    def __repr__(self):
        return f"FormKey(base={self[0]!r}, cells={len(self[1])}, hash={hash(self)})"


class WreathElement:
    """An element (f, b) of A wr B; identity lamp values are never stored."""

    __slots__ = ("lamp", "base", "f", "b", "_key")

    def __init__(self, lamp, base, f: dict, b, key=None):
        self.lamp = lamp
        self.base = base
        self.f = f  # base key -> (base element, nontrivial lamp element)
        self.b = b
        self._key = key

    def key(self) -> FormKey:
        """The FormKey of (f, b): exact equality, content order and a
        short repr; built once per element."""
        if self._key is None:
            lk = self.lamp.key
            cells = frozenset([(k, lk(val)) for k, (_, val) in self.f.items()])
            self._key = FormKey(self.base.key(self.b), cells)
        return self._key

    @property
    def is_identity(self) -> bool:
        return not self.f and self.base.key(self.b) == self.base.key(self.base.identity)

    def support(self):
        """Support points of f in canonical key order."""
        return [self.f[k][0] for k in sorted(self.f)]

    def lamp_at(self, pos):
        t = self.f.get(self.base.key(pos))
        return t[1] if t else self.lamp.identity

    def __eq__(self, other):
        return (
            isinstance(other, WreathElement)
            and self.lamp == other.lamp
            and self.base == other.base
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        lamps = {k: self.lamp.key(v) for k, (_, v) in sorted(self.f.items())}
        return f"WreathElement(f={lamps}, b={self.base.key(self.b)})"


def wreath_element(lamp, base, pairs, b) -> WreathElement:
    """Normalised constructor from (position, lamp value) pairs."""
    f: dict = {}
    ekey = lamp.key(lamp.identity)
    for pos, val in pairs:
        k = base.key(pos)
        if k in f:
            val = lamp.multiply(f[k][1], val)
        if lamp.key(val) == ekey:
            f.pop(k, None)
        else:
            f[k] = (pos, val)
    return WreathElement(lamp, base, f, b)


def identity_element(lamp, base) -> WreathElement:
    return WreathElement(lamp, base, {}, base.identity)


def lamp_generator(lamp, base, t) -> WreathElement:
    """(f_t, e): the lamp value t planted at the identity position."""
    return wreath_element(lamp, base, [(base.identity, t)], base.identity)


def base_generator(lamp, base, s) -> WreathElement:
    """(1, s): a pure base move."""
    return WreathElement(lamp, base, {}, s)


def _check_groups(u: WreathElement, v: WreathElement):
    if u.lamp != v.lamp or u.base != v.base:
        raise ValueError("wreath elements live over different groups")


def w_multiply(u: WreathElement, v: WreathElement) -> WreathElement:
    _check_groups(u, v)
    A, B = u.lamp, u.base
    f = dict(u.f)
    ekey = A.key(A.identity)
    for _, (pos, val) in v.f.items():
        npos = B.multiply(u.b, pos)
        k = B.key(npos)
        if k in f:
            merged = A.multiply(f[k][1], val)  # f(x) * g^b(x), f on the left
            if A.key(merged) == ekey:
                del f[k]
            else:
                f[k] = (f[k][0], merged)
        else:
            f[k] = (npos, val)
    return WreathElement(A, B, f, B.multiply(u.b, v.b))


def w_invert(u: WreathElement) -> WreathElement:
    A, B = u.lamp, u.base
    binv = B.invert(u.b)
    f = {}
    for _, (pos, val) in u.f.items():
        npos = B.multiply(binv, pos)
        f[B.key(npos)] = (npos, A.invert(val))
    return WreathElement(A, B, f, binv)


def w_conjugate(u: WreathElement, gamma: WreathElement) -> WreathElement:
    """gamma^-1 * u * gamma."""
    return w_multiply(w_multiply(w_invert(gamma), u), gamma)


def w_power(u: WreathElement, k: int) -> WreathElement:
    acc = identity_element(u.lamp, u.base)
    step = u if k >= 0 else w_invert(u)
    for _ in range(abs(k)):
        acc = w_multiply(acc, step)
    return acc


# -- the word metric ---------------------------------------------------------


def travel_cost(B: GroupHandle, points, b, config: RunConfig = DEFAULT) -> Measure:
    """Length of the shortest Cayley path in B from the identity to b
    visiting every given point: path_tsp over the points, exact while
    their count stays within config.travel_exact_max.
    """
    e = B.identity
    ekey, bkey = B.key(e), B.key(b)
    seen = set()
    pts = []
    for p in points:
        k = B.key(p)
        if k in (ekey, bkey) or k in seen:
            continue  # start and end are visited for free
        seen.add(k)
        pts.append(p)
    if not pts:
        return Measure.exactly(B.distance(e, b))
    n = len(pts)
    d0 = [B.distance(e, p) for p in pts]
    dend = [B.distance(p, b) for p in pts]
    D = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            D[i][j] = D[j][i] = B.distance(pts[i], pts[j])
    return path_tsp(d0, D, dend, config)


def path_tsp(d0, D, dend, config: RunConfig = DEFAULT) -> Measure:
    """Cost of the shortest path through n >= 1 points: a leg d0[i] into
    the first point, legs D[i][j] (symmetric) between points and a leg
    dend[j] out of the last; all-zero legs leave that endpoint free.

    Exact (subset dynamic program) while n stays within
    config.travel_exact_max; beyond that the value is a nearest-neighbour +
    2-opt upper bound and the lower field is the longest forced detour
    through one point or one pair of points.
    """
    n = len(d0)
    if n <= config.travel_exact_max:
        return Measure.exactly(_path_tsp_exact(n, d0, D, dend))
    lower = max(d0[i] + dend[i] for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            lower = max(lower, D[i][j] + min(d0[i] + dend[j], d0[j] + dend[i]))
    return Measure(_path_tsp_heuristic(n, d0, D, dend), False, lower)


def _path_tsp_exact(n, d0, D, dend) -> int:
    # dp[(mask, i)] = shortest start->i path visiting exactly `mask`
    dp = {(1 << i, i): d0[i] for i in range(n)}
    full = (1 << n) - 1
    for mask in range(1, full + 1):
        for i in range(n):
            if not mask & (1 << i) or (mask, i) not in dp:
                continue
            base = dp[(mask, i)]
            for j in range(n):
                if mask & (1 << j):
                    continue
                nmask = mask | (1 << j)
                cand = base + D[i][j]
                if cand < dp.get((nmask, j), cand + 1):
                    dp[(nmask, j)] = cand
    return min(dp[(full, i)] + dend[i] for i in range(n))


def _path_tsp_heuristic(n, d0, D, dend) -> int:
    # greedy nearest-neighbour start, then 2-opt segment reversals with
    # O(1) delta evaluation (D is symmetric, so interior costs are unchanged)
    order = []
    left = set(range(n))
    cur = None
    while left:
        nxt = min(left, key=lambda j: (d0[j] if cur is None else D[cur][j], j))
        order.append(nxt)
        left.remove(nxt)
        cur = nxt

    improved = True
    passes = 0
    while improved and passes < 80:
        improved = False
        passes += 1
        for i in range(n - 1):
            for j in range(i + 1, n):
                before = d0[order[i]] if i == 0 else D[order[i - 1]][order[i]]
                after = dend[order[j]] if j == n - 1 else D[order[j]][order[j + 1]]
                nbefore = d0[order[j]] if i == 0 else D[order[i - 1]][order[j]]
                nafter = dend[order[i]] if j == n - 1 else D[order[i]][order[j + 1]]
                if nbefore + nafter < before + after:
                    order[i : j + 1] = order[i : j + 1][::-1]
                    improved = True
    total = d0[order[0]] + dend[order[-1]]
    for a, b2 in zip(order, order[1:]):
        total += D[a][b2]
    return total


def lamp_weight(u: WreathElement) -> int:
    """Sum of the lamp lengths |f(x)|_A over the support."""
    A = u.lamp
    e = A.identity
    return sum(A.distance(e, val) for _, (_, val) in u.f.items())


def w_length(u: WreathElement, config: RunConfig = DEFAULT) -> Measure:
    """Word length of (f, b): travel cost of the support plus lamp weight."""
    return travel_cost(u.base, u.support(), u.b, config) + lamp_weight(u)


# -- coset projections and conjugators ----------------------------------------


def _coset_j(B, b, order_n, point, t):
    """Exponent j with b^j t = point, or None if point is outside <b>t."""
    rel = B.multiply(point, B.invert(t))
    if order_n is None:
        return B.power_membership(rel, b)
    if order_n == 1:
        return 0 if B.key(rel) == B.key(B.identity) else None
    j = B.power_membership(rel, b)
    return None if j is None else j % order_n


def _ordered_product(A, entries) -> object:
    """Product of lamp values with the higher coset exponent on the left."""
    acc = A.identity
    for _, val in sorted(entries):  # ascending j; multiply new value on the left
        acc = A.multiply(val, acc)
    return acc


def pi_projection(u: WreathElement, t, z=None):
    """The ordered product of the lamp values of u along the coset <b>t,
    with the support shifted by z; the conjugacy invariant of the coset."""
    A, B = u.lamp, u.base
    z = B.identity if z is None else z
    order_n = B.order(u.b)
    entries = []
    for _, (pos, val) in u.f.items():
        j = _coset_j(B, u.b, order_n, B.multiply(z, pos), t)
        if j is not None:
            entries.append((j, val))
    return _ordered_product(A, entries)


def _cosets(B, b, order_n, *sides):
    """Sort the (point, value) pairs of each side into right cosets of <b>
    by power membership alone: a point joins the first open coset <b>t
    that _coset_j places it in, or opens a new one with itself as t and
    j = 0.  Returns [(t, ({j: value} per side))] in first-seen order."""
    cosets = []
    for i, side in enumerate(sides):
        for point, val in side:
            for t, maps in cosets:
                j = _coset_j(B, b, order_n, point, t)
                if j is not None:
                    break
            else:
                j, maps = 0, tuple({} for _ in sides)
                cosets.append((point, maps))
            maps[i][j] = val
    return cosets


def _sorted_support(u: WreathElement):
    """(point, value) pairs of u in canonical key order."""
    return [u.f[k] for k in sorted(u.f)]


def conjugator_for_z(u: WreathElement, v: WreathElement, z) -> Optional[WreathElement]:
    """The conjugator (h, z) with u (h,z) = (h,z) v for this base part, or
    None when no conjugator with base part z exists.

    h is assembled per coset from prefix products: writing F_k (resp. G_k)
    for the product of the f values (resp. shifted g values) at exponents
    <= k, higher exponent on the left, h(b^k t) = F_k alpha G_k^-1.  The
    infinite-order case needs F = G at the top of every coset for h to have
    finite support and takes alpha = 1; the finite-order-N case takes the
    alpha = A.conjugator of the full coset products.  The returned element
    is verified before being returned.
    """
    _check_groups(u, v)
    A, B = u.lamp, u.base
    if B.key(B.multiply(u.b, z)) != B.key(B.multiply(z, v.b)):
        return None
    order_n = B.order(u.b)
    if order_n != B.order(v.b):
        return None

    shifted = [(B.multiply(z, pos), val) for pos, val in _sorted_support(v)]
    pairs = []
    for t, (fmap, gmap) in _cosets(B, u.b, order_n, _sorted_support(u), shifted):
        pf = _ordered_product(A, fmap.items())
        pg = _ordered_product(A, gmap.items())
        if order_n is None:
            alpha = A.identity if A.key(pf) == A.key(pg) else None
            js = set(fmap) | set(gmap)
            ks = range(min(js), max(js))
        else:
            alpha, ks = A.conjugator(pf, pg), range(order_n)
        if alpha is None:
            return None
        fcur = gcur = A.identity
        for k in ks:
            if k in fmap:
                fcur = A.multiply(fmap[k], fcur)
            if k in gmap:
                gcur = A.multiply(gmap[k], gcur)
            val = A.multiply(A.multiply(fcur, alpha), A.invert(gcur))
            if A.key(val) != A.key(A.identity):
                pairs.append((B.multiply(B.power(u.b, k), t), val))

    witness = wreath_element(A, B, pairs, z)
    if w_multiply(u, witness) != w_multiply(witness, v):
        raise InvariantViolation("assembled conjugator failed verification")
    return witness


def _projecting_point(u: WreathElement):
    """A support point of u whose <b>-coset has a nontrivial projection,
    or None when every coset projection of the lamp part is trivial."""
    A, B = u.lamp, u.base
    ekey = A.key(A.identity)
    for t, (fmap,) in _cosets(B, u.b, B.order(u.b), _sorted_support(u)):
        if A.key(_ordered_product(A, fmap.items())) != ekey:
            return t
    return None


def is_inert(u: WreathElement) -> bool:
    """True when every coset projection of the lamp part is trivial, i.e.
    the element is conjugate to its own lamp-free form (1, b).

    The projections are computed with no shift; triviality does not depend
    on the shift, so this is a conjugacy invariant.
    """
    return _projecting_point(u) is None


@dataclass
class ConjugacyResult:
    conjugate: bool
    witness: Optional[WreathElement]
    complete: bool
    case: str

    def __bool__(self):
        return self.conjugate


def base_part_candidates(u: WreathElement, v: WreathElement):
    """Yield base parts z with bz = zc, in a fixed order, such that
    u = (f, b) and v = (g, c) are conjugate iff conjugator_for_z finds a
    conjugator at one of them.

    Non-inert pairs: take a support point p of g whose coset projects
    nontrivially.  A conjugator (h, z) must carry the coset <c>p onto a
    coset <b>s with s in Supp f, whose projection must match, so
    z = b^k s p^-1; multiplying the conjugator by u^-k on the left keeps it
    a conjugator with base part s p^-1.  So every conjugator's base part is
    a power of b times one of at most |Supp f| candidates (Matthews, Trans.
    AMS 1966; Vassileva, GCC 2011).

    Inert pairs are conjugate iff b and c are conjugate in B, and then by a
    conjugator with any base part that conjugates b to c (Matthews): the
    one candidate is B.conjugator(b, c), so the decision recurses into B,
    which decides under the config it was built with.
    """
    _check_groups(u, v)
    return _base_parts(u, v, _projecting_point(v))


def _base_parts(u: WreathElement, v: WreathElement, p):
    """base_part_candidates with p = _projecting_point(v) already found."""
    B = u.base
    if p is not None:
        pinv = B.invert(p)
        zs = (B.multiply(s, pinv) for s in u.support())  # distinct: s -> s p^-1 is injective
    else:
        z0 = B.conjugator(u.b, v.b)
        zs = [] if z0 is None else [z0]
    for z in zs:
        if B.key(B.multiply(u.b, z)) == B.key(B.multiply(z, v.b)):
            yield z


def conjugacy_test(u: WreathElement, v: WreathElement) -> ConjugacyResult:
    """Decide conjugacy of u and v in A wr B by trying the base parts of
    base_part_candidates: at most |Supp u| of them for pairs that are not
    conjugate to a lamp-free element, and one conjugator of the base parts
    in B for pairs that are.  Lamp conjugators of finite-order base parts
    come from A.conjugator, so the decision recurses into A and B and is
    always complete; the returned result records which case decided it.
    """
    _check_groups(u, v)
    B = u.base
    if B.order(u.b) != B.order(v.b):
        return ConjugacyResult(False, None, True, "order-mismatch")

    inert = is_inert(u)
    p = _projecting_point(v)
    if inert != (p is None):
        return ConjugacyResult(False, None, True, "projection-mismatch")

    case = "inert-base" if inert else "scan"
    for z in _base_parts(u, v, p):
        witness = conjugator_for_z(u, v, z)
        if witness is not None:
            return ConjugacyResult(True, witness, True, case)
        if inert:
            raise InvariantViolation("inert pair lost its base conjugator")
    return ConjugacyResult(False, None, True, case if inert else "scan-exhausted")


def upper_bound_formula(n: int, P: int, delta=None, order=None, clf_a=None) -> int:
    """Closed-form conjugator-length bounds.

    Infinite base-part order: (n+1) * P * (2*delta(P) + 1), where delta is
    the distortion function of the cyclic subgroup generated by the base
    part (identity by default).  Finite order N: P * (N+1) *
    (2n + clf_a(n) + 1), where clf_a bounds conjugator length in the lamp
    group (zero by default).
    """
    if order is None:
        d = P if delta is None else delta(P)
        return (n + 1) * P * (2 * d + 1)
    c = 0 if clf_a is None else clf_a(n)
    return P * (order + 1) * (2 * n + c + 1)


# -- the wreath product as a group handle -------------------------------------


class WreathGroup(GroupHandle):
    """A wr B packaged as a handle, so the breadth-first oracle and the
    conjugacy machinery can treat it like any other group.

    ``distance`` is the exact metric formula; it raises BeyondCapError when
    the support outgrows the exact travel threshold.
    """

    kind = "wreath"

    def __init__(self, lamp: GroupHandle, base: GroupHandle, config: RunConfig = DEFAULT):
        self.lamp = lamp
        self.base = base
        self.config = config
        self.identity = identity_element(lamp, base)
        self.is_finite = lamp.is_finite and base.is_finite

    def generators(self):
        gens = []
        for label, t in self.lamp.generators():
            gens.append((f"a:{label}", lamp_generator(self.lamp, self.base, t)))
        for label, s in self.base.generators():
            gens.append((f"b:{label}", base_generator(self.lamp, self.base, s)))
        return gens

    def multiply(self, a, b):
        return w_multiply(a, b)

    def invert(self, a):
        return w_invert(a)

    def key(self, a):
        return a.key()

    def from_word(self, w):
        raise NotImplementedError("a wreath product is not a quotient of the free group on its lamps and base moves alone")

    def distance(self, a, b) -> int:
        m = w_length(w_multiply(w_invert(a), b), self.config)
        if not m.exact:
            raise BeyondCapError("wreath distance support exceeds the exact travel threshold")
        return m.value

    def order(self, a):
        nb = self.base.order(a.b)
        if nb is None:
            return None
        acc = w_power(a, nb)  # pure lamp part
        if acc.is_identity:
            return nb
        lamp_orders = set()
        for _, (_, val) in acc.f.items():
            o = self.lamp.order(val)
            if o is None:
                return None
            lamp_orders.add(o)
        out = nb
        for o in lamp_orders:
            out = lcm(out, o)
        return out

    def power_membership(self, x, b):
        if b.is_identity:
            raise ValueError("power query needs a nontrivial base")
        # Bounded two-sided scan; lengths grow at least linearly in the
        # exponent for the shipped lamp/base pairs.
        target = x.key()
        bound = w_length(x, self.config).value + 2
        for sign in (1, -1):
            step = b if sign > 0 else w_invert(b)
            acc = step
            for k in range(1, bound + 1):
                if acc.key() == target:
                    return sign * k
                acc = w_multiply(acc, step)
        return 0 if x.is_identity else None

    def conjugator(self, b, c):
        return conjugacy_test(b, c).witness

    def to_json(self, a):
        return element_to_json(a)

    def from_json(self, data):
        return element_from_json(data, self.lamp, self.base)

    def describe(self):
        return {
            "kind": "wreath",
            "lamp": self.lamp.describe(),
            "base": self.base.describe(),
        }


# -- JSON form ----------------------------------------------------------------


def element_to_json(u: WreathElement) -> dict:
    return {
        "f": [
            {"at": u.base.to_json(pos), "val": u.lamp.to_json(val)}
            for _, (pos, val) in sorted(u.f.items())
        ],
        "b": u.base.to_json(u.b),
    }


def element_from_json(data: dict, lamp: GroupHandle, base: GroupHandle) -> WreathElement:
    if not isinstance(data, dict) or "f" not in data or "b" not in data:
        raise ValueError('wreath element JSON needs "f" and "b" fields')
    pairs = [
        (base.from_json(cell["at"]), lamp.from_json(cell["val"])) for cell in data["f"]
    ]
    return wreath_element(lamp, base, pairs, base.from_json(data["b"]))
