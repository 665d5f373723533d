"""Finite T0 spaces as bit-vector posets.

Every finite topology is Alexandrov: its opens are exactly the upper sets
of the specialization order, and the order is recovered from any subbasis
by intersecting the subbasic opens around each point (the intersection is
the minimal open neighborhood).  A space therefore stores one bit mask per
point, the set of points above it, and materializes open families only on
demand behind a size cap.

Subsets of a space are plain ints, bit i standing for point i.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import compress, count, permutations, product, repeat
from operator import and_, itemgetter, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import CycleDetected, LimitExceeded, NotT0, PowerspaceTooLarge


_DIGIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")


def _selectors(mask: int) -> bytes:
    """Byte k is bit k of a non-negative mask, as 0 or 1.

    bin(mask) reversed without its "0b" has the digit of bit k at index k;
    translating the digits to bytes is one C-level pass.
    """
    return bin(mask)[:1:-1].encode().translate(_DIGIT_TO_BYTE)


def bits(mask: int) -> Iterator[int]:
    """The set bit positions of a non-negative mask, lowest first.

    The selector bytes pick the positions out of count() in C, with no
    Python step per bit.  The result is a lazy iterator, so next(bits(m))
    is the lowest set bit.
    """
    return compress(count(), _selectors(mask))


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def union_of(masks: Sequence[int], sel: int) -> int:
    """Union of masks[i] over the set bits i of sel.

    The selector bytes of sel pick the masks directly, with no index step;
    bits of sel at or above len(masks) pick nothing.
    """
    return reduce(or_, compress(masks, _selectors(sel)), 0)


def intersection_of(masks: Sequence[int], sel: int, full: int) -> int:
    """Intersection of masks[i] over the set bits i of sel; full when sel
    picks nothing.  Picked as in union_of."""
    return reduce(and_, compress(masks, _selectors(sel)), full)


def transpose(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """cols[p]: bit i set when bit p of rows[i] is set; every row lies below bit n.

    The rows, last first, are written as one string of n-digit binary
    numerals, so row i's numeral starts at (len - 1 - i) * n and holds
    bit p at offset n - 1 - p.  Column p is then the slice from n - 1 - p
    in steps of n, row len - 1 first, which int(..., 2) reads back as
    cols[p]: one C-level pass per column, none per row bit.
    """
    digits = "".join(map(format, reversed(rows), repeat(f"0{n}b")))
    # a list, not a generator: tuple() would shrink a ten-slot block, and those pile up on small free lists
    return tuple([int(digits[n - 1 - p :: n] or "0", 2) for p in range(n)])


def neighborhoods(seeds: Sequence[int], n: int) -> list[int]:
    """For each of n points, the intersection of the seeds containing it,
    or all n points when none does: its least neighborhood in the family
    the seeds generate under finite unions and intersections."""
    full = (1 << n) - 1
    return [intersection_of(seeds, col, full) for col in transpose(seeds, n)]


def set_label(names: Sequence[str], mask: int) -> str:
    """The names of mask's points, lowest first, as "{a,b}": the selector
    bytes pick the names in one C-level pass."""
    return "{" + ",".join(compress(names, _selectors(mask))) + "}"


class Labels(Sequence):
    """The names of a construction's points: set_label(names, m) for each
    mask m, made on the first read that needs them and then kept.

    It stands for the tuple of those labels and reads as it does: the same
    items, len, iteration, ==, hash and repr, and it pickles as that
    tuple.  Only len and comparison with itself make no labels.
    """

    __slots__ = ("_names", "_masks", "_labels")

    def __init__(self, names: Sequence[str], masks: Sequence[int]):
        self._names, self._masks, self._labels = names, masks, None

    def _tuple(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = tuple(map(set_label, repeat(self._names), self._masks))
        return self._labels

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, i):
        return self._tuple()[i]

    def __iter__(self) -> Iterator[str]:
        return iter(self._tuple())

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, Labels):
            other = other._tuple()
        return self._tuple() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())

    def __reduce__(self):
        return tuple, (self._tuple(),)


@dataclass(frozen=True)
class FiniteSpace:
    """A finite T0 space, stored as its specialization order.

    names  one identifier per point, pairwise distinct; a construction's
           are a Labels, filled in on the first read
    up     up[i] is the bit mask of {j : i <= j}, including i itself

    n is len(up), so no size query reads the names.

    The open sets are the upper sets of the order.  They are enumerated
    lazily because iterated powerspace constructions make the family
    Dedekind-large long before the point count becomes a problem.

    Every space built through this constructor is validated, in this order
    over all rows: masks in range and reflexive, then transitive, then
    antisymmetric.  That covers every parsed or user-given order.  The
    constructions A, K, L and O derive their rows and Hasse edges instead
    and enter through _trusted, unvalidated: A, K and O fold extent
    inclusion along their base's open_covers, and L lists the one-part
    covers of its lens order.

    Transitivity is one union per row.  With strict[i] the row up[i]
    without i, let above be the union of the strict rows of strict[i]'s
    points.  Reflexivity puts those points in up[i], so the order is
    transitive exactly when above lies inside up[i] for every i.  The same
    union yields the row's Hasse edges: j covers i exactly when j is in
    strict[i] but not in above.  A validated space keeps those edges, as
    _trusted keeps a construction's.  Once the order is reflexive and
    transitive, i <= j <= i holds exactly when up[i] == up[j], so it is
    antisymmetric exactly when the rows are pairwise distinct.
    """

    names: Sequence[str]
    up: tuple[int, ...]

    def __post_init__(self):
        n, up = len(self.names), self.up
        if len(up) != n:
            raise ValueError("names and up must have equal length")
        if len(set(self.names)) != n:
            raise ValueError("point names must be pairwise distinct")
        full = (1 << n) - 1
        for i, m in enumerate(up):
            if m & ~full:
                raise ValueError("up mask out of range")
            if not (m >> i) & 1:
                raise ValueError("order must be reflexive")
        strict = tuple(m & ~(1 << i) for i, m in enumerate(up))
        edges = array("I")
        for i, (m, s) in enumerate(zip(up, strict)):
            above = union_of(strict, s)
            if above & ~m:
                raise ValueError("order must be transitive")
            for j in bits(s & ~above):
                edges.extend((i, j))
        if len(set(up)) != n:
            raise ValueError("order must be antisymmetric")
        self.__dict__.update(_strict_up=strict, _edges=edges)

    @classmethod
    def _trusted(cls, names: Sequence[str], up: tuple[int, ...], edges: array) -> FiniteSpace:
        """A space on an order its caller derived and answers for: the
        rows up and the Hasse edges, a flat array of (i, j) pairs by i then
        j as covers() lists them, are taken as given, with no row pass.
        Only the constructions A, K, L and O call it."""
        space = cls.__new__(cls)
        space.__dict__.update(names=names, up=up, _edges=edges)
        return space

    @property
    def n(self) -> int:
        return len(self.up)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.up)) - 1

    @cached_property
    def down(self) -> tuple[int, ...]:
        return transpose(self.up, self.n)

    @cached_property
    def fingerprint(self) -> str:
        payload = repr((self.names, self.up)).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    def __repr__(self):
        return f"FiniteSpace(n={self.n}, fp={self.fingerprint})"

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def is_upper(self, mask: int) -> bool:
        return union_of(self.up, mask) == mask

    # opens are upper sets, closed sets are lower sets
    is_open = is_upper

    def is_lower(self, mask: int) -> bool:
        return union_of(self.down, mask) == mask

    is_closed = is_lower

    def closure_mask(self, mask: int) -> int:
        return union_of(self.down, mask)

    def saturation_mask(self, mask: int) -> int:
        return union_of(self.up, mask)

    def interior_mask(self, mask: int) -> int:
        return self.full_mask & ~self.closure_mask(self.full_mask & ~mask)

    @cached_property
    def _strict_up(self) -> tuple[int, ...]:
        return tuple(m & ~(1 << i) for i, m in enumerate(self.up))

    def minimal_points(self, mask: int) -> int:
        """Bit mask of the order-minimal points of mask: those strictly
        above no point of mask, in one union over mask's strict rows."""
        return mask & ~union_of(self._strict_up, mask)

    @cached_property
    def _upper_set_count(self) -> int:
        return count_upper_sets(self)

    def refuse_over_cap(self, limits: Limits) -> None:
        """Raise PowerspaceTooLarge, before anything is enumerated, if the
        space has more upper (or lower) sets than the cap; counted once, and
        only if 2**n exceeds the cap."""
        cap = limits.max_construction_points
        if 1 << self.n > cap and self._upper_set_count > cap:
            raise PowerspaceTooLarge(f"more than {cap} upper sets")

    @cached_property
    def _opens(self) -> tuple[int, ...]:
        return tuple(enumerate_upper_sets(self.up))

    def opens(self, limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
        """All open sets, sorted ascending as masks.  refuse_over_cap decides
        the cap first, so the enumeration never aborts, and one enumeration,
        kept on the space, serves every cap."""
        self.refuse_over_cap(limits)
        return self._opens

    @cached_property
    def opens_index(self) -> tuple[tuple[int, ...], Labels]:
        """The transpose of the opens, entry p the mask of those holding
        point p, and their labels; K and O of this space share both."""
        return transpose(self._opens, self.n), Labels(self.names, self._opens)

    @cached_property
    def open_covers(self) -> tuple[array, array, array]:
        """The cover pairs of the lattice of opens, as flat arrays hi, lo
        and piv: _opens[lo[k]] is _opens[hi[k]] less piv[k], one of its
        minimal points; by hi, then lo, ascending (highest piv first).

        Two upper sets are a cover pair exactly when they differ by one
        point (Birkhoff; Davey and Priestley, Introduction to Lattices and
        Order, ch. 5), which must be minimal in the larger: one
        minimal_points pass per open and one lookup per edge, once per
        space.  A, K, L and O over the space all read these edges.
        """
        opens = self._opens
        index = {u: i for i, u in enumerate(opens)}
        hi, lo, piv = array("I"), array("I"), array("I")
        for h, u in enumerate(opens):
            m = self.minimal_points(u)
            while m:
                p = m.bit_length() - 1
                m ^= 1 << p
                hi.append(h)
                lo.append(index[u ^ 1 << p])
                piv.append(p)
        return hi, lo, piv

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i in the order, by i then j: for a
        validated space the edges its row pass found, or for a
        construction the edges it derived: for A, K and
        O its base's open_covers, the pairs of extents one base point
        apart, and for L the lens pairs one part apart.  Listing them is
        O(edges).
        """
        it = iter(self._edges)
        return list(zip(it, it))


@dataclass(frozen=True)
class PtSet:
    """A subset of a space's points, kept next to its space."""

    space: FiniteSpace
    mask: int

    def __post_init__(self):
        if self.mask & ~self.space.full_mask:
            raise ValueError("extent outside the space")

    def points(self) -> tuple[str, ...]:
        return tuple(self.space.names[i] for i in bits(self.mask))

    def label(self) -> str:
        return set_label(self.space.names, self.mask)

    def __contains__(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)

    def to_json(self) -> dict:
        return {"space": self.space.fingerprint, "points": list(self.points())}


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure.  witness is present iff it failed."""

    holds: bool
    witness: object = None
    info: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict carries no witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict needs a witness")


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, PtSet):
        return obj.to_json()
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_jsonable(v) for v in items]
    return repr(obj)


@dataclass(frozen=True)
class SpaceMap:
    """A total point function with explicit domain and codomain."""

    domain: FiniteSpace
    codomain: FiniteSpace
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.domain.n:
            raise ValueError("table length must match the domain")
        if self.table and not (min(self.table) >= 0 and max(self.table) < self.codomain.n):
            raise ValueError("table entry outside the codomain")

    def __call__(self, i: int) -> int:
        return self.table[i]

    def image_mask(self) -> int:
        return mask_of(self.table)

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    @cached_property
    def _pick_preimage(self) -> itemgetter:
        # bin(mask | 1 << codomain.n) has bit v of mask at index -1 - v and
        # "0" at index 0; this picks that "0" and then bit table[i] for i
        # from n - 1 down to 0, which int(..., 2) reads back.
        return itemgetter(0, *(-1 - v for v in reversed(self.table)))

    def preimage_mask(self, mask: int) -> int:
        """Points whose image lies in mask: bit i is bit table[i] of mask.

        mask is a subset (a non-negative int); its bits at or above
        codomain.n are ignored.  The bits are picked from mask's binary
        digits in one C-level pass, so a call costs no Python step per
        point.
        """
        return int("".join(self._pick_preimage(bin(mask | 1 << self.codomain.n))), 2)


def identity_map(space: FiniteSpace) -> SpaceMap:
    return SpaceMap(space, space, tuple(range(space.n)))


def compose(outer: SpaceMap, inner: SpaceMap) -> SpaceMap:
    if inner.codomain != outer.domain:
        raise ValueError("composition mismatch")
    return SpaceMap(inner.domain, outer.codomain, tuple(outer.table[v] for v in inner.table))


def check_continuous(f: SpaceMap) -> Verdict:
    """Continuity of a map between finite spaces.

    The opens of a finite space are the upper sets of its specialization
    order, so f is continuous exactly when it is monotone, and that is
    what decides the verdict.  Only when it fails is a witness sought:
    preimage commutes with unions and intersections, so some minimal open
    neighborhood up(y) of the codomain has a preimage that is not open,
    and the witness is the first such y's neighborhood.
    """
    dom, cod = f.domain, f.codomain
    if is_monotone(f):
        return Verdict(True, info={"checker": "check_continuous", "subbasics": cod.n})
    y = next(y for y in range(cod.n) if not dom.is_upper(f.preimage_mask(cod.up[y])))
    return Verdict(False, witness=PtSet(cod, cod.up[y]), info={"checker": "check_continuous"})


def is_monotone(f: SpaceMap) -> bool:
    """i <= j implies f(i) <= f(j).  The order is the reflexive-transitive
    closure of its Hasse edges, so checking every edge is exact."""
    cod_up, t = f.codomain.up, f.table
    return all(cod_up[t[i]] >> t[j] & 1 for i, j in f.domain.covers())


def iter_continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> Iterator[SpaceMap]:
    """All continuous (equivalently monotone) maps dom -> cod."""
    if dom.n == 0:
        yield SpaceMap(dom, cod, ())
        return
    if cod.n == 0:
        return
    for table in product(range(cod.n), repeat=dom.n):
        f = SpaceMap(dom, cod, table)
        if is_monotone(f):
            yield f


def generating_maps(spaces: Sequence[FiniteSpace]) -> list[SpaceMap]:
    """Continuous maps between the given spaces that generate every
    continuous map between them under composition.

    spaces are the representatives enumerate_spaces(n) lists for some n,
    with or without the empty space.  For each representative R, in the
    order of spaces:

    - every automorphism of R, the identity first;
    - per point p, the inclusion rep(R - p) -> R of R without p;
    - per cover pair a < b, the merge R -> rep(R/{a,b}) that identifies
      a and b;
    - per ordered incomparable pair (a, b), the extension R -> rep(R + a<=b),
      the identity on points onto R's order with down(a) x up(b) added,
      again a partial order.

    rep(S) is the representative of S's class, and each step reaches it
    by the fixed isomorphism canonical_relabeling finds for S's rows.  A
    deletion into the empty space is listed only when the empty space is.

    They generate.  Let f: R -> R' be monotone between representatives;
    induct on |R| + |R'|, then down on the number of pairs in R's order
    (Davey and Priestley, Introduction to Lattices and Order, ch. 1).
    Below, c is the fixed isomorphism of each step.

    - f misses a point p: it corestricts to f': R -> R' - p, so f is the
      deletion at p after c o f', whose codomain is smaller.
    - f is onto but not one-to-one, and some fibre holds x < y: every
      point of a maximal chain from x to y lies in that fibre
      (f(x) <= f(z) <= f(y) = f(x)), so it holds a cover pair a < b.
      Identifying a cover pair closes no cycle, so R/{a,b} is a partial
      order, and f, constant on {a, b}, is g o q for a monotone g on it.
      So f is (g o c^-1) after the merge c o q, whose codomain is smaller
      than R.
    - f is onto, no fibre holds x < y, and f is not an isomorphism: some
      a not below b has f(a) <= f(b), two points of one fibre or, with f
      one-to-one, a pair its inverse does not keep in order.  b < a
      would put a and b in one fibre (f(b) <= f(a) <= f(b)), so a and b
      are incomparable.  f stays monotone on R with a <= b added, so f
      is (f o c^-1) after the extension c o e at (a, b), whose codomain
      has the points of R and more order pairs.
    - f is an isomorphism: R and R' are one class, so R = R' and f is
      one of R's automorphisms.

    Each case ends at a generator or a smaller case, so every continuous
    map between the spaces is a composite of these.
    """
    reps = {s.up: s for s in spaces}

    def onto_rep(r: FiniteSpace, rows: list[int], table) -> SpaceMap:
        """r -> rep(rows), x going to point table[x] of rows."""
        key, perm = canonical_relabeling(tuple(rows))
        return SpaceMap(r, reps[key], tuple(perm[t] for t in table))

    out = []
    for r in spaces:
        n, up = r.n, r.up
        # r is its own least relabeling, so the permutations giving it are its automorphisms
        out += (SpaceMap(r, r, perm) for perm in sorted(_least_relabelings(up)[1]))
        # R - p is empty only for a one-point R, and listed only with the empty space
        for p in range(n if n > 1 or () in reps else 0):
            sub, inclusion = subspace(r, r.full_mask ^ 1 << p)
            key, perm = canonical_relabeling(sub.up)
            table = [0] * sub.n
            for k, v in enumerate(perm):
                table[v] = inclusion.table[k]
            out.append(SpaceMap(reps[key], r, tuple(table)))
        for a, b in map(sorted, r.covers()):
            pair, hull, low = 1 << a | 1 << b, up[a] | up[b], (1 << b) - 1

            def squeeze(m: int) -> int:
                # drop point b, whose bit goes to a, and close the gap
                return m & low | (m >> b + 1) << b | (m >> b & 1) << a

            rows = [squeeze(m | hull if m & pair else m) for x, m in enumerate(up) if x != b]
            out.append(onto_rep(r, rows, [a if x == b else x - (x > b) for x in range(n)]))
        for a, b in permutations(range(n), 2):
            if not (up[a] >> b & 1 or up[b] >> a & 1):
                out.append(onto_rep(r, [m | up[b] if m >> a & 1 else m for m in up], range(n)))
    return out


# ---------------------------------------------------------------------------
# constructors


def space_from_opens(names: Sequence[str], opens: Iterable[Iterable[int] | int]) -> FiniteSpace:
    """Build a space from a generating family of opens.

    The family is implicitly closed under union and intersection, with the
    empty and full sets adjoined; since the closure does not change which
    points each open separates, the order can be read off the given family
    directly.  Raises NotT0 when two points share all their neighborhoods.
    """
    names = tuple(names)
    n = len(names)
    full = (1 << n) - 1
    masks = []
    for o in opens:
        m = o if isinstance(o, int) else mask_of(o)
        if m & ~full:
            raise ValueError("open contains unknown points")
        masks.append(m)
    up = neighborhoods(masks, n)
    seen: dict[int, int] = {}
    for p, m in enumerate(up):
        if m in seen:
            raise NotT0((names[seen[m]], names[p]))
        seen[m] = p
    return FiniteSpace(names, tuple(up))


def _point_index(index: Mapping[str, int], n: int, item) -> int:
    """The index of the point item names, by name or by index below n;
    ValueError for anything else."""
    if isinstance(item, str) and item in index:
        return index[item]
    if type(item) is int and 0 <= item < n:
        return item
    raise ValueError(f"{item!r} is not a point")


def space_from_poset(names: Sequence[str], covers: Iterable[tuple]) -> FiniteSpace:
    """Build a space from order generators (x below y per pair), each
    point given by name or by index; anything else raises ValueError."""
    names = tuple(names)
    n = len(names)
    index = {nm: i for i, nm in enumerate(names)}
    up = [1 << i for i in range(n)]
    for a, b in covers:
        up[_point_index(index, n, a)] |= 1 << _point_index(index, n, b)
    # Warshall-style closure
    for k in range(n):
        bk = 1 << k
        for i in range(n):
            if up[i] & bk:
                up[i] |= up[k]
    for i in range(n):
        for j in bits(up[i]):
            if j != i and (up[j] >> i) & 1:
                raise CycleDetected((names[i], names[j]))
    return FiniteSpace(names, tuple(up))


def subspace(space: FiniteSpace, mask: int) -> tuple[FiniteSpace, SpaceMap]:
    """The subspace on mask together with its inclusion map."""
    if mask & ~space.full_mask:
        raise ValueError(f"mask {mask} is not a subset of the {space.n} points")
    chosen = list(bits(mask))
    pos = {p: k for k, p in enumerate(chosen)}
    up = []
    for p in chosen:
        m = 0
        for q in bits(space.up[p] & mask):
            m |= 1 << pos[q]
        up.append(m)
    sub = FiniteSpace(tuple(space.names[p] for p in chosen), tuple(up))
    return sub, SpaceMap(sub, space, tuple(chosen))


# ---------------------------------------------------------------------------
# point-set operations


def closure(space: FiniteSpace, s: PtSet) -> PtSet:
    _check_same(space, s)
    return PtSet(space, space.closure_mask(s.mask))


def saturation(space: FiniteSpace, s: PtSet) -> PtSet:
    _check_same(space, s)
    return PtSet(space, space.saturation_mask(s.mask))


def interior(space: FiniteSpace, s: PtSet) -> PtSet:
    _check_same(space, s)
    return PtSet(space, space.interior_mask(s.mask))


def _check_same(space: FiniteSpace, s: PtSet):
    if s.space != space:
        raise ValueError("point set belongs to a different space")


# ---------------------------------------------------------------------------
# upper-set enumeration and the topology closure


def enumerate_upper_sets(up: Sequence[int]) -> list[int]:
    """All upper sets of the order, ascending as masks.

    Depth-first over the points, maximal elements first, so a point may be
    included exactly when everything strictly above it already is.  It
    takes no cap and never aborts: callers decide the cap before calling
    it, by counting (FiniteSpace.refuse_over_cap).
    """
    n = len(up)
    order = sorted(range(n), key=lambda i: (up[i].bit_count(), i))
    out: list[int] = []
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        pos, cur = stack.pop()
        if pos == n:
            out.append(cur)
            continue
        p = order[pos]
        stack.append((pos + 1, cur))
        if up[p] & ~cur == 1 << p:
            stack.append((pos + 1, cur | (1 << p)))
    out.sort()
    return out


def count_upper_sets(space: FiniteSpace) -> int:
    """Number of upper sets, equal by complement to the number of lower sets.

    Memoized split over subsets P of the points: an upper set of P either
    misses x and with it all of down(x), or contains all of up(x), so
    D(P) = D(P - down(x)) + D(P - up(x)).  It shares no code with
    enumerate_upper_sets, which it audits and, in refuse_over_cap, gates.
    """
    return _count_split(space.full_mask, space.up, space.down, {0: 1})


def _count_split(p: int, up, down, memo: dict) -> int:
    """D(p) by the split above, x the lowest point of each subset, on an
    explicit stack: recursion would go one level deep per point of a
    chain.  A subset whose halves are not both in memo goes back on the
    stack under them."""
    stack = [p]
    while stack:
        q = stack.pop()
        if q in memo:
            continue
        x = (q & -q).bit_length() - 1
        low, high = q & ~down[x], q & ~up[x]
        if low in memo and high in memo:
            memo[q] = memo[low] + memo[high]
        else:
            stack += (q, low, high)
    return memo[p]


# ---------------------------------------------------------------------------
# enumeration of all finite T0 spaces


def _least_relabelings(up: tuple[int, ...]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The least relabeling of the order under all point permutations,
    and every permutation perm giving it, point i renamed perm[i], found
    by the top-down search canonical_relabeling argues."""
    n = len(up)
    perm = [0] * n
    rows: list[int] = []
    best, perms = None, []

    def extend(left: int) -> None:
        nonlocal best, perms
        k = len(rows)
        if not left:
            # pruning lets through only leaves at or below the best
            if best is None or tuple(rows) < best:
                best, perms = tuple(rows), []
            perms.append(tuple(perm))
            return
        # the maximal points left, each with its row as point k
        tops = [
            (1 << k | mask_of(perm[j] for j in bits(up[q] ^ 1 << q)), q)
            for q in bits(left)
            if up[q] & left == 1 << q
        ]
        least = min(tops)[0]
        rows.append(least)
        if best is None or tuple(rows) <= best[: k + 1]:
            for row, q in tops:
                if row == least:
                    perm[q] = k
                    extend(left ^ 1 << q)
        rows.pop()

    extend((1 << n) - 1)
    return best, perms


def canonical_relabeling(up: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The least relabeling of the order under all point permutations,
    with the least permutation that gives it: point i of up is point
    perm[i] of the canonical order, so perm is the table of an
    isomorphism onto it.

    Found top-down, labelling 0, 1, ... in turn, not by trying all n!
    permutations.  Row k of a relabeling holds bit k.  If the point
    labelled k lies below a point not yet labelled, that point's label
    is above k and row k is at least 2^(k+1); a point maximal among
    those left has row k below 2^(k+1), and one always exists.  So a
    least relabeling labels each point after every point above it, and
    row k is read off the labels already given.  Given the rows before
    k, the least row k is the least over the maximal points left, and a
    relabeling with a larger row k is larger however it goes on.  The
    search therefore branches only over the maximal points left that
    tie on the least row k, and drops a branch whose rows so far exceed
    the best complete relabeling's.  Every permutation giving the least
    relabeling ties at every level, so each one is reached, and the
    least of them is kept: the same pair as min over all n!.  This is
    the branch-and-prune scheme of canonical labelling (McKay and
    Piperno, Practical graph isomorphism, II, 2014), without their
    refinement and automorphism pruning.
    """
    rows, perms = _least_relabelings(up)
    return rows, min(perms)


@cache
def _canonical_posets_exact(k: int) -> tuple[tuple[int, ...], ...]:
    """All posets on exactly k points, one canonical representative each.

    Grown by adding a maximal point above each lower set of a smaller
    poset; every poset arises this way along any linear extension.  The
    cache hands the same tuple to every caller, so none can change it.
    """
    if k == 0:
        return ((),)
    out: set[tuple[int, ...]] = set()
    for smaller in _canonical_posets_exact(k - 1):
        for low in enumerate_upper_sets(transpose(smaller, k - 1)):
            up = [m | (1 << (k - 1)) if (low >> i) & 1 else m for i, m in enumerate(smaller)]
            up.append(1 << (k - 1))
            out.add(canonical_relabeling(tuple(up))[0])
    return tuple(sorted(out))


MAX_ENUMERATION_POINTS = 6  # largest n accepted by enumerate_spaces


@cache
def enumerate_spaces(n: int) -> tuple[FiniteSpace, ...]:
    """All finite T0 spaces on at most n points, the empty space included,
    one representative per poset isomorphism class."""
    if n > MAX_ENUMERATION_POINTS:
        raise LimitExceeded(f"enumeration capped at {MAX_ENUMERATION_POINTS} points")
    return tuple(
        FiniteSpace(tuple(f"p{i}" for i in range(k)), up) for k in range(n + 1) for up in _canonical_posets_exact(k)
    )


# ---------------------------------------------------------------------------
# ready-made small spaces


def chain(n: int, names: Sequence[str] | None = None) -> FiniteSpace:
    names = tuple(names) if names else tuple(f"c{i}" for i in range(n))
    return FiniteSpace(names, tuple(mask_of(range(i, n)) for i in range(n)))


def antichain(n: int, names: Sequence[str] | None = None) -> FiniteSpace:
    names = tuple(names) if names else tuple(f"a{i}" for i in range(n))
    return FiniteSpace(names, tuple(1 << i for i in range(n)))


def sierpinski() -> FiniteSpace:
    return chain(2, names=("bot", "top"))


def empty_space() -> FiniteSpace:
    return FiniteSpace((), ())


# ---------------------------------------------------------------------------
# JSON interchange


def space_to_json(space: FiniteSpace) -> dict:
    return {
        "points": list(space.names),
        "order": [[space.names[i], space.names[j]] for i, j in space.covers()],
    }


def space_from_json(data: dict | str) -> FiniteSpace:
    """Accepts either the covers form or the explicit opens form, not both.

    Points must be distinct strings.  Order pairs name two points, by name
    or index; opens list point indices.  Anything else raises ValueError.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("space JSON must be an object")
    names = data.get("points")
    if not isinstance(names, list) or not all(isinstance(nm, str) for nm in names):
        raise ValueError("'points' must be a list of strings")
    if len(set(names)) != len(names):
        raise ValueError("point names must be pairwise distinct")
    index = {nm: i for i, nm in enumerate(names)}

    def entries(key: str) -> list:
        value = data[key]
        if not isinstance(value, list) or not all(isinstance(e, list) for e in value):
            raise ValueError(f"'{key}' must be a list of lists")
        return value

    if "order" in data and "opens" in data:
        raise ValueError("space JSON takes either 'order' or 'opens', not both")
    if "order" in data:
        pairs = entries("order")
        if any(len(p) != 2 for p in pairs):
            raise ValueError("each order entry must be a pair of points")
        return space_from_poset(names, pairs)
    if "opens" in data:
        opens = entries("opens")
        if any(type(i) is not int for o in opens for i in o):
            raise ValueError("opens must list point indices")
        return space_from_opens(names, [[_point_index(index, len(names), i) for i in o] for o in opens])
    raise ValueError("space JSON needs either 'order' or 'opens'")
