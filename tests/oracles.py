"""Literal quantifiers kept as test oracles for the library's shortcuts."""

from powerspace.core import enumerate_upper_sets, union_of


def row_union_covers(up) -> list[tuple[int, int]]:
    """Validate up as a partial order by one union per row and return its
    Hasse edges by i then j; raise ValueError with FiniteSpace's message.

    With strict[i] = up[i] without i, above is the union of strict[j]
    over j in strict[i], one OR per order pair.  Reflexivity puts each
    such j in up[i], so the order is transitive exactly when above lies
    inside up[i], and j covers i exactly when j is in strict[i] but not
    in above.
    """
    n, full = len(up), (1 << len(up)) - 1
    for i, m in enumerate(up):
        if m & ~full:
            raise ValueError("up mask out of range")
        if not (m >> i) & 1:
            raise ValueError("order must be reflexive")
    strict = [m & ~(1 << i) for i, m in enumerate(up)]
    edges = []
    for i, (m, s) in enumerate(zip(up, strict)):
        above = union_of(strict, s)
        if above & ~m:
            raise ValueError("order must be transitive")
        c = s & ~above
        while c:
            edges.append((i, (c & -c).bit_length() - 1))
            c &= c - 1
    if len(set(up)) != n:
        raise ValueError("order must be antisymmetric")
    return edges


def close_family(seeds, full: int) -> frozenset[int]:
    """Close a family of sets under pairwise union and intersection,
    with the empty and full sets adjoined."""
    fam = {0, full}
    fam.update(seeds)
    frontier = list(fam)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(fam):
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(fam)


def _upper_families(opens) -> list[int]:
    """Every upper family of opens under inclusion, as masks over their
    indices: the Scott-open families of a finite open-set lattice."""
    above = [sum(1 << j for j, v in enumerate(opens) if not u & ~v) for u in opens]
    return enumerate_upper_sets(above)


def literal_consonance(x) -> tuple[int, int] | None:
    """The first (family, open) pair, families in mask order, at which no
    compact K inside the open U has its filter inside the family; None
    when x is consonant.  Compact saturated sets of a finite space are its
    opens, and the filter of K is every open containing K."""
    opens = x.opens()
    filters = [sum(1 << j for j, v in enumerate(opens) if not k & ~v) for k in opens]
    for fam in _upper_families(opens):
        for u_idx, u in enumerate(opens):
            if fam >> u_idx & 1 and not any(
                not k & ~u and not filters[k_idx] & ~fam for k_idx, k in enumerate(opens)
            ):
                return fam, u_idx
    return None


def _triangles(x) -> list[int]:
    """Per open k, the opens meeting its complement, as a mask over the
    opens: the triangle of that closed set."""
    opens = x.opens()
    return [sum(1 << j for j, v in enumerate(opens) if (x.full_mask ^ u) & v) for u in opens]


def least_triangle_intersections(x) -> list[int]:
    """Per open U, the intersection of the triangles of every closed set
    meeting U: the least finite intersection of triangles containing U."""
    opens = x.opens()
    tri = _triangles(x)
    everything = (1 << len(opens)) - 1
    out = []
    for u in opens:
        inter = everything
        for k, v in enumerate(opens):
            if (x.full_mask ^ v) & u:
                inter &= tri[k]
        out.append(inter)
    return out


def literal_co_consonance(x, candidates=None) -> tuple[int, int] | None:
    """The first (family, open) pair, families in mask order, at which no
    searched intersection I of triangles has U in I inside the family;
    None when x is co-consonant.  The search is the open's candidate, by
    default its least triangle intersection, and every intersection of
    two triangles."""
    opens = x.opens()
    tri = _triangles(x)
    if candidates is None:
        candidates = least_triangle_intersections(x)
    pairs = [tri[i] & tri[j] for i in range(len(tri)) for j in range(i, len(tri))]
    for fam in _upper_families(opens):
        for u_idx in range(len(opens)):
            if fam >> u_idx & 1 and not any(
                inter >> u_idx & 1 and not inter & ~fam for inter in [candidates[u_idx], *pairs]
            ):
                return fam, u_idx
    return None


def literal_wilker(x) -> tuple[int, int, int] | None:
    """The first (K, U1, U2) with K saturated inside the open cover U1 | U2
    that no saturated K1 inside U1 and K2 inside U2 cover; None when x has
    Wilker's property.  The saturated sets of a finite space are its
    opens."""
    opens = x.opens()
    for u1 in opens:
        for u2 in opens:
            for k in opens:
                if k & ~(u1 | u2):
                    continue
                if not any(
                    not k1 & ~u1 and not k2 & ~u2 and not k & ~(k1 | k2) for k1 in opens for k2 in opens
                ):
                    return k, u1, u2
    return None
