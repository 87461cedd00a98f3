"""Restricted wreath products A wr B over arbitrary group handles:
arithmetic, the exact word metric, and the conjugacy machinery.

An element is a pair (f, b): a finite-support function f from B to A plus
a base point b, with multiplication (f,b)(g,c) = (f g^b, bc) where
g^b(x) = g(b^-1 x).  With the standard generating set (one generator per
base generator, one lamp generator per A generator at the identity
position) the word length is

    |(f, b)| = K(Supp f, b) + sum_x |f(x)|_A

where K(S, b) is the length of the shortest Cayley path in B from the
identity to b visiting every point of S.  K is a path-TSP; path_tsp takes
a nearest-neighbour + 2-opt path, exact when it meets the sound detour
lower bound.  One that misses the bound gives way to a subset dynamic
program up to a configured size and is flagged as an upper bound beyond
it, so each instance decides its own exactness.  The connection cost of
the magnus module over a Z^r base uses the same kernel.

Conjugacy is decided through coset projections: fix b and a right-coset
representative t of <b>; the ordered product of the lamp values of f along
the coset (higher power of b multiplying on the left), optionally shifted
by z, is the invariant pi_t^(z)(f).  Support points are grouped into
cosets by power membership alone: p lies in <b>t iff p t^-1 is a power of
b, which also gives p's exponent along the coset.  Each element sorts its
own support into cosets once, with each coset's projection (its coset
table, filled on first use).  Power membership and element orders of
wreath forms (w_power_membership, w_order) are exact recursions into A
and B, with no length bound.  Two elements (f,b),
(g,c) are conjugate iff some z with bz = zc matches the projections on
every coset (equality for b of infinite order, A-conjugacy for finite
order), and the conjugator (h, z) is assembled from prefix products along
each coset.  Since bz = zc, z carries g's coset <c>t' onto <b>zt' with
exponents unchanged, so matching the two tables costs one membership
query per pair of cosets tried.
One generator, conjugators, yields the verified conjugator of each base
part of base_part_candidates that admits one: a conjugator must carry a
nontrivially projecting coset of g onto a coset through Supp f, which
leaves at most |Supp f| candidates up to powers of b, and pairs whose
projections are all trivial reduce to conjugacy in B.  For b of infinite
order the conjugator with a given base part is unique (a centraliser
element (h, e) of (f, b) has h trivial), so the one at b^k z is
(f, b)^k times the one at z, and step_conjugators walks along <b> from a
witness; step_radius bounds how far a walk for a shortest one must go.
Every conjugator is verified against u*(h,z) = (h,z)*v.

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
from operator import add
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

    __slots__ = ("lamp", "base", "f", "b", "_key", "_table")  # _table: see _coset_table

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
    """u^k by binary powering: O(log |k|) products."""
    acc = identity_element(u.lamp, u.base)
    step, k = (u, k) if k >= 0 else (w_invert(u), -k)
    while k:
        if k & 1:
            acc = w_multiply(acc, step)
        k >>= 1
        if k:
            step = w_multiply(step, step)
    return acc


def w_order(u: WreathElement):
    """Order of u = (f, b): N * lcm of the lamp orders of u^N = (h, e),
    N the order of b; None when either is infinite."""
    n = u.base.order(u.b)
    if n is None:
        return None
    orders = [u.lamp.order(val) for _, (_, val) in w_power(u, n).f.items()]
    return None if None in orders else n * lcm(*orders)


def w_power_membership(x: WreathElement, b: WreathElement) -> Optional[int]:
    """The exponent k with x = b^k, or None; exact, by recursion into the
    lamp and base handles, with no length bound.

    Write b = (f, beta) and x = (g, gamma).  If beta has infinite order,
    gamma = beta^k fixes k.  If b has finite order M, b^0 .. b^(M-1) is a
    complete scan.  Otherwise beta has finite order N and b^N = (h, e) has
    a lamp h(p) of infinite order: gamma fixes k mod N as j, and
    x b^-j = (h^m, e) fixes m at p, so k = j + N m.  Each answer is
    confirmed against b^k.
    """
    if b.is_identity:
        raise ValueError("power query needs a nontrivial base")
    A, B = b.lamp, b.base
    n, order = B.order(b.b), w_order(b)
    if order is not None:
        acc = identity_element(A, B)
        for k in range(order):
            if acc == x:
                return k
            acc = w_multiply(acc, b)
        return None
    if n is None:
        k = B.power_membership(x.b, b.b)
    else:
        j = _coset_j(B, b.b, n, x.b, B.identity)
        p, hp = next((pos, val) for pos, val in w_power(b, n).f.values() if A.order(val) is None)
        m = None if j is None else A.power_membership(w_multiply(x, w_power(b, -j)).lamp_at(p), hp)
        k = None if m is None else j + n * m
    return k if k is not None and w_power(b, k) == x else None


# -- the word metric ---------------------------------------------------------


def travel_cost(B: GroupHandle, points, b, config: RunConfig = DEFAULT) -> Measure:
    """Length of the shortest Cayley path in B from the identity to b
    visiting every given point: path_tsp over the points, exact while
    their count stays within config.travel_exact_max or when the path
    found meets path_tsp's lower bound.

    The legs from e and the matrix are read a row at a time through
    B.distances: d(e, p), and for each point the distances to the points
    after it, the lower triangle copied from the rows above it.  The legs
    into b are read one at a time as d(p, b): a metric whose exactness
    rests on path_tsp (a wreath base, for one) can certify d(p, b)
    and flag d(b, p).  n points cost n(n-1)/2 + 2n distances.
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
    D = []
    for i, p in enumerate(pts):
        D.append([row[i] for row in D] + [0] + B.distances(p, pts[i + 1 :]))
    return path_tsp(B.distances(e, pts), D, [B.distance(p, b) for p in pts], config)


def path_tsp(d0, D, dend, config: RunConfig = DEFAULT) -> Measure:
    """Cost of the shortest path through n >= 1 points: a leg d0[i] into
    the first point, legs D[i][j] (symmetric, obeying the triangle
    inequality) between points and a leg dend[j] out of the last; all-zero
    legs leave that endpoint free.

    The value is first the cost of a nearest-neighbour + 2-opt path, and
    the lower field the longest forced detour through one point or one
    pair of points.  A path that meets this sound lower bound is optimal,
    so the value is then exact at any n.  One that misses it is replaced
    by the subset dynamic program's optimum while n stays within
    config.travel_exact_max, and is returned flagged beyond that.
    """
    n = len(d0)
    lower = max(map(add, d0, dend))
    for i in range(n - 1):
        si, ti = d0[i], dend[i]
        for dij, sj, tj in zip(D[i][i + 1 :], d0[i + 1 :], dend[i + 1 :]):
            # the pair i, j in either order: dij + min(si + tj, sj + ti)
            a, c = si + tj, sj + ti
            cand = dij + (a if a < c else c)
            if cand > lower:
                lower = cand
    value = _path_tsp_heuristic(n, d0, D, dend)
    if value != lower and n <= config.travel_exact_max:
        return Measure.exactly(_path_tsp_exact(n, d0, D, dend))
    return Measure(value, value == lower, lower)


def _path_tsp_exact(n, d0, D, dend) -> int:
    # dp[mask][i] = shortest start->i path visiting exactly `mask`
    full = (1 << n) - 1
    inf = float("inf")
    dp = [[inf] * n for _ in range(full + 1)]
    for i in range(n):
        dp[1 << i][i] = d0[i]
    for mask in range(1, full):
        outside = [(j, mask | 1 << j) for j in range(n) if not mask >> j & 1]
        for i, base in enumerate(dp[mask]):
            if base == inf:
                continue
            row = D[i]
            for j, nmask in outside:
                cand = base + row[j]
                if cand < dp[nmask][j]:
                    dp[nmask][j] = cand
    return min(map(add, dp[full], dend))


def _path_tsp_heuristic(n, d0, D, dend) -> int:
    # greedy nearest-neighbour start (ties to the smallest index: `left`
    # stays ascending and min keeps the first minimum), then 2-opt segment
    # reversals with O(1) delta evaluation (D is symmetric, so interior
    # costs are unchanged)
    order = []
    left = list(range(n))
    row = d0
    while left:
        nxt = min(left, key=row.__getitem__)
        order.append(nxt)
        left.remove(nxt)
        row = D[nxt]

    last = n - 1
    improved = True
    passes = 0
    while improved and passes < 80:
        improved = False
        passes += 1
        for i in range(last):
            # prev: the row of legs into position i; reversing order[i..j]
            # keeps order[i - 1] and changes order[i]
            prev = d0 if i == 0 else D[order[i - 1]]
            oi = order[i]
            before, rowi = prev[oi], D[oi]
            for j in range(i + 1, n):
                oj = order[j]
                if j == last:
                    after, nafter = dend[oj], dend[oi]
                else:
                    nx = order[j + 1]
                    after, nafter = D[oj][nx], rowi[nx]
                if prev[oj] + nafter < before + after:
                    order[i : j + 1] = order[i : j + 1][::-1]
                    improved = True
                    oi = order[i]
                    before, rowi = prev[oi], D[oi]
    total = d0[order[0]] + dend[order[-1]]
    for a, b2 in zip(order, order[1:]):
        total += D[a][b2]
    return total


def lamp_weight(u: WreathElement) -> int:
    """Sum of the lamp lengths |f(x)|_A over the support, read as one row
    of A.distances from the identity."""
    A = u.lamp
    return sum(A.distances(A.identity, [val for _, val in u.f.values()]))


def w_length(u: WreathElement, config: RunConfig = DEFAULT) -> Measure:
    """Word length of (f, b): travel cost of the support plus lamp weight."""
    return travel_cost(u.base, u.support(), u.b, config) + lamp_weight(u)


def w_length_floor(u: WreathElement) -> int:
    """A sound floor under w_length(u).lower in either travel regime, in
    O(|Supp u|) distances: lamp weight plus the longest detour e -> p -> b
    through one point travel_cost visits (path_tsp's lower contains it).
    It reads only distances that travel_cost reads for u, the legs from e
    as one row."""
    B, e, b = u.base, u.base.identity, u.b
    free = (B.key(e), B.key(b))  # visited for free, as in travel_cost
    pts = [p for k, (p, _) in u.f.items() if k not in free]
    dend = [B.distance(p, b) for p in pts]
    return max(map(add, B.distances(e, pts), dend), default=0) + lamp_weight(u)


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


def _cosets(B, b, order_n, points):
    """Sort (point, value) pairs into right cosets of <b> by power
    membership alone: a point joins the first open coset <b>t that
    _coset_j places it in, or opens a new one with itself as t and j = 0.
    Returns [(t, {j: value})] in first-seen order."""
    cosets = []
    for point, val in points:
        for t, jmap in cosets:
            j = _coset_j(B, b, order_n, point, t)
            if j is not None:
                break
        else:
            j, jmap = 0, {}
            cosets.append((point, jmap))
        jmap[j] = val
    return cosets


def _sorted_support(u: WreathElement):
    """(point, value) pairs of u in canonical key order."""
    return [u.f[k] for k in sorted(u.f)]


def _coset_table(u: WreathElement):
    """u's support sorted into right cosets of <u.b> once per element:
    [(t, {j: value}, projection)] in first-seen order over the sorted
    support, the projection the coset's ordered lamp product.  Filled on
    first use, so building an element costs nothing extra."""
    try:
        return u._table
    except AttributeError:
        A, B = u.lamp, u.base
        cosets = _cosets(B, u.b, B.order(u.b), _sorted_support(u))
        u._table = [(t, jmap, _ordered_product(A, jmap.items())) for t, jmap in cosets]
        return u._table


def conjugator_for_z(u: WreathElement, v: WreathElement, z) -> Optional[WreathElement]:
    """The conjugator (h, z) with u (h,z) = (h,z) v for this base part, or
    None when no conjugator with base part z exists.

    Both supports come sorted into cosets from their elements' coset
    tables.  Since bz = zc, z carries v's coset <c>t' onto <b>zt' with
    exponents unchanged, so each coset of v is placed with one _coset_j
    per coset of u tried; for b of infinite order only cosets of u with
    the same projection are tried, and the first projection mismatch
    rejects z before anything is assembled.

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

    ekey = A.key(A.identity)
    cosets = [(t, fmap, pf, {}) for t, fmap, pf in _coset_table(u)]  # + g's values on <b>t
    unmatched = list(range(len(cosets)))
    for t2, gmap, pg in _coset_table(v):
        s, pgk = B.multiply(z, t2), A.key(pg)  # z c^j t2 = b^j s
        for i in unmatched:
            t, _, pf, shifted = cosets[i]
            if order_n is None and A.key(pf) != pgk:
                continue  # infinite order: a match needs equal projections
            j0 = _coset_j(B, u.b, order_n, s, t)
            if j0 is not None:
                unmatched.remove(i)
                for j, val in gmap.items():
                    shifted[j + j0 if order_n is None else (j + j0) % order_n] = val
                break
        else:  # s meets no coset of u that can match
            if order_n is None and pgk != ekey:
                return None
            cosets.append((s, {}, A.identity, gmap))
    if order_n is None and any(A.key(cosets[i][2]) != ekey for i in unmatched):
        return None

    pairs = []
    for t, fmap, pf, gmap in cosets:
        if order_n is None:
            alpha = A.identity
            js = set(fmap) | set(gmap)
            ks = range(min(js), max(js))
        else:
            alpha, ks = A.conjugator(pf, _ordered_product(A, gmap.items())), range(order_n)
            if alpha is None:
                return None
        fcur = gcur = A.identity
        pos = B.multiply(B.power(u.b, ks.start), t)  # b^k t, one step per k
        for k in ks:
            if k in fmap:
                fcur = A.multiply(fmap[k], fcur)
            if k in gmap:
                gcur = A.multiply(gmap[k], gcur)
            val = A.multiply(A.multiply(fcur, alpha), A.invert(gcur))
            if A.key(val) != ekey:
                pairs.append((pos, val))
            pos = B.multiply(u.b, pos)

    witness = wreath_element(A, B, pairs, z)
    if w_multiply(u, witness) != w_multiply(witness, v):
        raise InvariantViolation("assembled conjugator failed verification")
    return witness


def _projecting_point(u: WreathElement):
    """A support point of u whose <b>-coset has a nontrivial projection,
    or None when every coset projection of the lamp part is trivial."""
    A = u.lamp
    ekey = A.key(A.identity)
    return next((t for t, _, p in _coset_table(u) if A.key(p) != ekey), None)


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
    """Yield candidate base parts z, in a fixed order, such that
    u = (f, b) and v = (g, c) are conjugate iff conjugator_for_z finds a
    conjugator at one of them; it rejects first the z with bz != zc.

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
        yield from (B.multiply(s, pinv) for s in u.support())  # distinct: s -> s p^-1 is injective
    else:
        z0 = B.conjugator(u.b, v.b)
        if z0 is not None:
            yield z0


def _decision_case(u: WreathElement, v: WreathElement):
    """(case, p), p = _projecting_point(v) found once: an order or
    projection mismatch rules conjugacy out, and "inert-base" or "scan"
    names the candidate set that decides it."""
    B = u.base
    if B.order(u.b) != B.order(v.b):
        return "order-mismatch", None
    inert = is_inert(u)
    p = _projecting_point(v)
    if inert != (p is None):
        return "projection-mismatch", p
    return ("inert-base" if inert else "scan"), p


def _conjugators(u: WreathElement, v: WreathElement, case: str, p):
    """conjugators with _decision_case(u, v) already found."""
    if case.endswith("mismatch"):
        return
    for z in _base_parts(u, v, p):
        witness = conjugator_for_z(u, v, z)
        if witness is not None:
            yield witness
        elif p is None:
            raise InvariantViolation("inert pair lost its base conjugator")


def conjugators(u: WreathElement, v: WreathElement):
    """Yield the verified conjugator conjugator_for_z(u, v, z) for each base
    part z of base_part_candidates that admits one, in that order, and
    nothing on an order or projection mismatch.  Lazy: a caller that stops
    at a witness builds no conjugator past it."""
    _check_groups(u, v)
    return _conjugators(u, v, *_decision_case(u, v))


def step_conjugators(u: WreathElement, v: WreathElement, w: WreathElement, steps: int) -> list:
    """The conjugators at base parts b^k z, b = u.b, for k = 1 .. steps
    (k = -1 .. steps when steps < 0), w being the one at z.

    b must have infinite order, so that the conjugator at a base part is
    unique and the one at b^(k+-1) z is u^(+-1) times the one at b^k z;
    over a finite-order b the lamp conjugator alpha is free, and the walk
    is refused before it builds anything.  Each step is verified: the
    upper of the two conjugators it joins, u times the lower, must equal
    the lower times v.
    """
    if u.base.order(u.b) is not None:
        raise ValueError("stepping conjugators along <b> needs b of infinite order")
    move = u if steps > 0 else w_invert(u)
    walked = []
    for _ in range(abs(steps)):
        nxt = w_multiply(move, w)
        lower, upper = (w, nxt) if steps > 0 else (nxt, w)
        if w_multiply(lower, v) != upper:
            raise InvariantViolation("stepped conjugator failed verification")
        walked.append(nxt)
        w = nxt
    return walked


def step_radius(u: WreathElement, w: WreathElement, best: int) -> int:
    """A radius r such that every conjugator u^k w with |k| > r, w any
    conjugator of u = (f, b), is longer than best.

    Take the N cosets of <b> on which u projects nontrivially, s the
    largest span max j - min j + 1 of u's exponents on one of them.  On
    each, u^k carries the projection (or its inverse) as its lamp at the
    |k| - s + 1 points whose window of |k| exponents covers u's, and the
    |Supp w| shifted lamps of w cancel at most that many, so u^k w has at
    least N(|k| - s + 1) - |Supp w| lamps.  Each lamp costs a letter and
    all but one a move, so the length is at least twice the lamps less
    one, which exceeds best for |k| > r.  An inert u (N = 0) has no such
    radius, and a finite-order b repeats its cosets; both are refused.
    """
    A, B = u.lamp, u.base
    if B.order(u.b) is not None:
        raise ValueError("a stopping radius along <b> needs b of infinite order")
    ekey = A.key(A.identity)
    spans = [max(jmap) - min(jmap) + 1 for _, jmap, p in _coset_table(u) if A.key(p) != ekey]
    if not spans:
        raise ValueError("an inert element has no stopping radius: its powers may carry no lamps")
    return max(spans) - 1 + (best + 2 * len(w.f) + 1) // (2 * len(spans))


def conjugacy_test(u: WreathElement, v: WreathElement) -> ConjugacyResult:
    """Decide conjugacy of u and v in A wr B by the first witness of
    conjugators: at most |Supp u| base parts are tried for pairs that are
    not conjugate to a lamp-free element, and one conjugator of the base
    parts in B for pairs that are.  Lamp conjugators of finite-order base
    parts come from A.conjugator, so the decision recurses into A and B and
    is always complete; the returned result records which case decided it.
    """
    _check_groups(u, v)
    case, p = _decision_case(u, v)
    witness = next(_conjugators(u, v, case, p), None)
    if witness is None and case == "scan":
        case = "scan-exhausted"
    return ConjugacyResult(witness is not None, witness, True, case)


def upper_bound_formula(n: int, P: int, delta=None, order=None) -> int:
    """Closed-form conjugator-length bounds.

    Infinite base-part order: (n+1) * P * (2*delta(P) + 1), where delta is
    the distortion function of the cyclic subgroup generated by the base
    part (identity by default).  Finite order N: P * (N+1) * (2n + 1), the
    lamp group's conjugator-length term taken as zero.
    """
    if order is None:
        d = P if delta is None else delta(P)
        return (n + 1) * P * (2 * d + 1)
    return P * (order + 1) * (2 * n + 1)


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
        return w_order(a)

    def distortion_window(self, x, n: int) -> int:
        """An infinite-order base part b takes B's window (projecting is
        1-Lipschitz).  If b has order N, x^(qN + r) has the lamp h(p)^q f_r(p)
        at p, h(p) of infinite order in x^N = (h, e) and f_r the lamps of x^r,
        so |x^(qN + r)| <= n forces |h(p)^q| <= n + max_r |f_r(p)|."""
        N = self.base.order(x.b)
        if N is None:
            return self.base.distortion_window(x.b, n)
        A, powers = self.lamp, [self.identity]
        for _ in range(N):
            powers.append(w_multiply(powers[-1], x))
        p, hp = next((pos, val) for pos, val in powers.pop().f.values() if A.order(val) is None)
        s = max(A.distance(A.identity, xr.lamp_at(p)) for xr in powers)
        return N * (A.distortion_window(hp, n + s) + 1)

    def power_membership(self, x, b):
        return w_power_membership(x, b)

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
