"""Fox's free differential calculus on the free-group ring, with
projections to quotient rings.

The i-th derivative is the unique derivation sending x_j to 1 when i = j
and to 0 otherwise; it satisfies D(ab) = D(a)eps(b) + a D(b) where eps sums
coefficients.  On a single reduced word it comes out of one left-to-right
prefix scan: a letter x_i contributes +(prefix before it), a letter x_i^-1
contributes -(prefix up to and including it).

The projected derivative of a word through a quotient map is the same scan
carried out in the quotient, which equals pushing the free derivative
forward; the equality is asserted in the tests rather than assumed here.
projected_derivatives is the ring-valued view, used by `fox --quotient`
and the acceptance checks.  The Magnus embedding (magnus.magnus_embed)
carries the same coefficients in its cells, built one cell per letter by
the rule of wreath products, with no ring elements.
"""

from .groups import FreeHandle, GroupHandle
from .ring import RingElement, _accumulate
from .words import FreeWord

_free_handles: dict[int, FreeHandle] = {}


def free_handle(rank: int) -> FreeHandle:
    if rank not in _free_handles:
        _free_handles[rank] = FreeHandle(rank)
    return _free_handles[rank]


def fox_derivative(w: FreeWord, i: int) -> RingElement:
    """d(w)/d(x_i) as an element of the free-group ring."""
    if i < 1 or i > w.rank:
        raise ValueError(f"derivative index {i} out of range for rank {w.rank}")
    F = free_handle(w.rank)
    terms: dict = {}
    prefix: list[int] = []
    for let in w.letters:
        # Prefixes of a reduced word are reduced, so appending never cancels.
        if let == i:
            _accumulate(F, terms, FreeWord(w.rank, tuple(prefix), _reduced=True), 1)
        prefix.append(let)
        if let == -i:
            _accumulate(F, terms, FreeWord(w.rank, tuple(prefix), _reduced=True), -1)
    return RingElement(F, terms)


def fox_derivative_ring(a: RingElement, i: int) -> RingElement:
    """Linear extension of the derivative to the whole free-group ring."""
    if not isinstance(a.group, FreeHandle):
        raise ValueError("ring derivative is defined over the free-group ring")
    out = RingElement.zero(a.group)
    for w, coeff in a.items():
        out = out + fox_derivative(w, i) * coeff
    return out


def projected_derivatives(w: FreeWord, Q: GroupHandle):
    """All r projected derivatives of w in the ring of Q, plus the endpoint
    of the walk (the image of w in Q).

    One walk through the Cayley graph of Q computes every coordinate: the
    contribution positions are the walked vertices.
    """
    gens = [g for _, g in Q.generators()]
    if len(gens) < w.rank:
        raise ValueError(f"quotient has {len(gens)} generators, word has rank {w.rank}")
    terms = [dict() for _ in range(w.rank)]
    q = Q.identity
    for let in w.letters:
        i = abs(let)
        g = gens[i - 1]
        if let > 0:
            _accumulate(Q, terms[i - 1], q, 1)
            q = Q.multiply(q, g)
        else:
            q = Q.multiply(q, Q.invert(g))
            _accumulate(Q, terms[i - 1], q, -1)
    return [RingElement(Q, t) for t in terms], q


def projected_derivative(w: FreeWord, i: int, Q: GroupHandle) -> RingElement:
    """The i-th derivative of w pushed into the ring of the quotient Q."""
    if i < 1 or i > w.rank:
        raise ValueError(f"derivative index {i} out of range for rank {w.rank}")
    ders, _ = projected_derivatives(w, Q)
    return ders[i - 1]


def verify_fundamental(a: RingElement) -> RingElement:
    """Residual of the fundamental identity
    a - eps(a)*1 = sum_i D_i(a) (x_i - 1); zero for every ring element."""
    F = a.group
    if not isinstance(F, FreeHandle):
        raise ValueError("fundamental identity lives over the free-group ring")
    e = F.identity
    residual = a - RingElement.scalar(a.augmentation(), e, F)
    for i in range(1, F.rank + 1):
        xi = RingElement.scalar(1, F.from_word(FreeWord(F.rank, (i,))), F)
        one = RingElement.scalar(1, e, F)
        residual = residual - fox_derivative_ring(a, i) * (xi - one)
    return residual
