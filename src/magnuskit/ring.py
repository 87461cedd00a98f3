"""Sparse arithmetic in integral group rings over any group handle.

A ring element is a finite integer combination of group elements, stored
as a map from canonical keys to (element, coefficient) with no zero
coefficients, so equality is syntactic on normal forms.  Coefficients are
plain Python integers: prefix products elsewhere in the library can grow,
and arbitrary precision costs nothing here.
"""

from .groups import GroupHandle


class RingElement:
    __slots__ = ("group", "_terms")

    def __init__(self, group: GroupHandle, terms: dict | None = None):
        self.group = group
        self._terms = terms or {}

    # -- construction --------------------------------------------------

    @classmethod
    def zero(cls, group):
        return cls(group, {})

    @classmethod
    def scalar(cls, coeff: int, elem, group):
        """The one-term combination coeff * elem."""
        if coeff == 0:
            return cls(group, {})
        return cls(group, {group.key(elem): (elem, coeff)})

    @classmethod
    def from_pairs(cls, group, pairs):
        out = {}
        for elem, coeff in pairs:
            _accumulate(group, out, elem, coeff)
        return cls(group, out)

    # -- views -----------------------------------------------------------

    def items(self):
        """Terms as (element, coefficient), sorted by canonical key."""
        return [self._terms[k] for k in sorted(self._terms)]

    def terms(self):
        """Terms as (element, coefficient), in no canonical order."""
        return self._terms.values()

    def coefficient(self, elem) -> int:
        t = self._terms.get(self.group.key(elem))
        return t[1] if t else 0

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support_size(self) -> int:
        return len(self._terms)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if self.group != other.group:
            raise ValueError("group mismatch between ring elements")

    def __add__(self, other):
        self._check(other)
        out = dict(self._terms)
        for elem, coeff in other._terms.values():
            _accumulate(self.group, out, elem, coeff)
        return RingElement(self.group, out)

    def __neg__(self):
        return RingElement(
            self.group, {k: (g, -c) for k, (g, c) in self._terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return RingElement.zero(self.group)
            return RingElement(
                self.group, {k: (g, c * other) for k, (g, c) in self._terms.items()}
            )
        self._check(other)
        G = self.group
        out = {}
        for a, ca in self._terms.values():
            for b, cb in other._terms.values():
                _accumulate(G, out, G.multiply(a, b), ca * cb)
        return RingElement(G, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.group == other.group
            and {k: c for k, (_, c) in self._terms.items()}
            == {k: c for k, (_, c) in other._terms.items()}
        )

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        if not self._terms:
            return "RingElement(0)"
        bits = " + ".join(f"{c}*{self.group.key(g)}" for g, c in self.items())
        return f"RingElement({bits})"

    # -- homomorphisms ----------------------------------------------------

    def augmentation(self) -> int:
        """Sum of the coefficients; the ring map onto Z."""
        return sum(c for _, c in self._terms.values())

    def pushforward(self, image_fn, target: GroupHandle) -> "RingElement":
        """Apply an element map linearly, merging colliding images.

        The merge is where kernel collapse happens: terms whose images agree
        in the target add their coefficients and may cancel.
        """
        out = {}
        for elem, coeff in self._terms.values():
            _accumulate(target, out, image_fn(elem), coeff)
        return RingElement(target, out)


def _accumulate(group, terms: dict, elem, coeff: int):
    if coeff == 0:
        return
    k = group.key(elem)
    if k in terms:
        c = terms[k][1] + coeff
        if c:
            terms[k] = (terms[k][0], c)
        else:
            del terms[k]
    else:
        terms[k] = (elem, coeff)


# -- JSON form ------------------------------------------------------------


def to_json(a: RingElement) -> list:
    return [{"elem": a.group.to_json(g), "coeff": c} for g, c in a.items()]


def from_json(data, group: GroupHandle) -> RingElement:
    if not isinstance(data, list):
        raise ValueError("ring element JSON must be a list of terms")
    pairs = []
    for term in data:
        pairs.append((group.from_json(term["elem"]), int(term["coeff"])))
    return RingElement.from_pairs(group, pairs)
