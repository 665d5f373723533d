"""Literal quantifiers kept as test oracles for the library's shortcuts."""

import copy
from functools import cached_property, reduce
from itertools import permutations, product
from operator import or_

from powerspace.canonical import _SQUARES, alpha_beta, gamma_delta, phi_psi, sigma_tau
from powerspace.config import DEFAULT_LIMITS
from powerspace.core import (
    MAX_ENUMERATION_POINTS,
    FiniteSpace,
    SpaceMap,
    Verdict,
    bits,
    check_continuous,
    compose,
    enumerate_spaces,
    enumerate_upper_sets,
    iter_continuous_maps,
    intersection_of,
    neighborhoods,
    set_label,
    union_of,
)
from powerspace.errors import PreconditionViolated
from powerspace.powerspaces import KIND_CONVEX, KIND_LOWER, KIND_OPENS, KIND_UPPER, Powers, functor_map


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


def three_test_embedding(f: SpaceMap) -> bool:
    """validate_embedding by its three literal tests, none of them
    _first_unembedded's row test: f is injective, check_continuous
    holds, and the image of every up(i) is relatively open, the trace on
    the image of some open of the codomain, found by scanning them."""
    image = set(f.table)
    if len(image) != f.domain.n or not check_continuous(f).holds:
        return False
    traces = {frozenset(image & set(bits(w))) for w in f.codomain.opens()}
    return all(frozenset(f.table[j] for j in bits(m)) in traces for m in f.domain.up)


def relabel(up, perm) -> tuple[int, ...]:
    """The order rows up with point i renamed perm[i]."""
    rows = [0] * len(up)
    for i, m in enumerate(up):
        rows[perm[i]] = sum(1 << perm[j] for j in bits(m))
    return tuple(rows)


def least_relabeling(up) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """canonical_relabeling by its definition: the least relabeled rows
    over all n! point permutations, with the least permutation giving
    them."""
    above = [tuple(bits(m)) for m in up]

    def relabeled(perm):
        rows = [0] * len(up)
        for p, js in zip(perm, above):
            rows[p] = sum([1 << perm[j] for j in js])
        return tuple(rows)

    return min((relabeled(perm), perm) for perm in permutations(range(len(up))))


_LABELLED: dict[int, tuple[FiniteSpace, ...]] = {}
_AS_BUILT: list[tuple[tuple[FiniteSpace, ...], list[dict]]] = []  # each shared tuple, its spaces' attributes as handed out


def _guard(spaces: tuple[FiniteSpace, ...]) -> tuple[FiniteSpace, ...]:
    """Keep spaces' attributes as handed out, for restore_shared_spaces."""
    _AS_BUILT.append((spaces, [dict(vars(sp)) for sp in spaces]))
    return spaces


def labelled_spaces(n: int) -> tuple[FiniteSpace, ...]:
    """Every labelling of every T0 space on at most n points, by size,
    then by rows: each representative of enumerate_spaces(n) under all
    k! point permutations, point i renamed perm[i], duplicates dropped.

    Built once per n and shared by every caller, so a test that shadows
    an attribute of one changes what later tests read: tests that corrupt
    a space copy it first, and restore_shared_spaces names and undoes
    any change left behind."""
    if n not in _LABELLED:
        out = []
        for k in range(n + 1):
            reps = (s for s in enumerate_spaces(n) if s.n == k)
            labelled = {relabel(rep.up, perm) for rep in reps for perm in permutations(range(k))}
            out += (FiniteSpace(tuple(f"p{i}" for i in range(k)), up) for up in sorted(labelled))
        _LABELLED[n] = _guard(tuple(out))
    return _LABELLED[n]


def guard_enumerated_spaces() -> None:
    """Hand every tuple enumerate_spaces caches, n up to its cap, to
    restore_shared_spaces: the suites and many tests read those same
    objects.  Called once, before the first test."""
    for n in range(MAX_ENUMERATION_POINTS + 1):
        _guard(enumerate_spaces(n))


def restore_shared_spaces() -> list[str]:
    """The attributes changed since labelled_spaces, or
    guard_enumerated_spaces, handed their spaces out, as "up=<rows>:
    <attribute>", each such space put back as built.

    An attribute is changed when it is rebound to another object or
    removed, or added other than by a cached_property of FiniteSpace with
    the value a fresh copy of the space computes; such additions are
    kept.  A value changed in place, with no rebinding, is not seen."""
    changed, missing = [], object()
    for spaces, as_built in _AS_BUILT:
        if list(map(vars, spaces)) == as_built:
            continue
        for sp, built in zip(spaces, as_built):
            now = vars(sp)
            for key in now.keys() - built.keys():
                if isinstance(getattr(FiniteSpace, key, None), cached_property):
                    if now[key] == getattr(FiniteSpace(built["names"], built["up"]), key):
                        built[key] = now[key]
            bad = sorted(key for key in now.keys() | built.keys() if now.get(key, missing) is not built.get(key))
            if bad:
                changed += (f"up={built['up']}: {key}" for key in bad)
                now.clear()
                now.update(built)
    return changed


def literal_rows(cs) -> tuple[int, ...]:
    """The order rows of the construction cs, kind A, K or O, one selector
    pass per extent: the points whose extent contains it (A, O) or lies
    inside it (K)."""
    return tuple(map(cs.box if cs.kind == KIND_UPPER else cs.containing, cs.extents))


def literal_transpose(rows, n: int) -> tuple[int, ...]:
    """cols[p]: bit i set when bit p of rows[i] is set, one OR per set
    bit, for rows below bit n."""
    cols = [0] * n
    for i, m in enumerate(rows):
        for p in bits(m):
            cols[p] |= 1 << i
    return tuple(cols)


def literal_unions(cs, parts) -> list[int]:
    """Per point of the construction cs, the union of parts[p] over the
    base points p of its extent, one union_of per extent."""
    return [union_of(parts, e) for e in cs.extents]


def literal_intersections(cs, parts, full: int) -> list[int]:
    """Per point of cs, the intersection of parts[p] over its extent, full
    for the empty extent, one intersection_of per extent."""
    return [intersection_of(parts, e, full) for e in cs.extents]


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


def literal_subbasis(cs) -> list[int]:
    """The generating opens of the construction cs, U running over the
    opens of its base: containing(U) for O, diamond(U) for A, box(U) for
    K, and the diamonds then the boxes for L."""
    opens = cs.base._opens
    if cs.kind == KIND_OPENS:
        return [cs.containing(u) for u in opens]
    diamonds = [cs.diamond(u) for u in opens] if cs.kind != KIND_UPPER else []
    boxes = [cs.box(u) for u in opens] if cs.kind != KIND_LOWER else []
    return diamonds + boxes


def literal_least_neighborhoods(cs) -> list[int]:
    """Per point of cs, the intersection of every subbasic set holding it."""
    return neighborhoods(literal_subbasis(cs), cs.space.n)


def literal_topology_coincidence(cs, against: str) -> Verdict:
    """topology_coincidence on the literal least neighborhoods: the first
    point whose generated neighborhood is not its up-set is the witness."""
    names, up = cs.space.names, cs.space.up
    info = {"checker": "topology_coincidence", "against": against}
    for p, (generated, row) in enumerate(zip(literal_least_neighborhoods(cs), up)):
        if generated != row:
            witness = {"point": names[p], "generated": set_label(names, generated), against: set_label(names, row)}
            return Verdict(False, witness=witness, info=info)
    return Verdict(True, info=info)


def flip_index_bit(cs, fields, p: int, i: int):
    """A copy of the construction cs with bit i of row p flipped in each
    index table named in fields ("members", "sat_members"); its extents
    and order are cs's."""
    out = copy.copy(cs)
    for name in fields:
        rows = list(getattr(cs, name))
        rows[p] ^= 1 << i
        object.__setattr__(out, name, tuple(rows))
    return out


def index_bit_flips(cs):
    """flip_index_bit at every row of the base and every bit below the
    point count: of members and of sat_members apart for L, of both at
    once for A, K and O, where they are one table."""
    groups = (("members",), ("sat_members",)) if cs.kind == KIND_CONVEX else (("members", "sat_members"),)
    for fields, p, i in product(groups, range(cs.base.n), range(cs.space.n)):
        yield flip_index_bit(cs, fields, p, i)


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


def literal_wilker_walk(x, r, k, u1, u2):
    """The levelwise walk written out literally: each level's pool tests
    every open against every live value with r.refines."""
    opens = x.opens()
    levels, seen = [], {}
    f, g = frozenset([u1]), frozenset([u2])
    while (f, g) not in seen:
        seen[(f, g)] = len(levels)
        pool = [v for v in opens if any(r.refines(v, u) for u in f) or any(r.refines(v, u) for u in g)]
        chosen, remaining = [], k
        for v in pool:
            if remaining and v & remaining:
                chosen.append(v)
                remaining &= ~v
        if remaining:
            raise PreconditionViolated("no cover")
        levels.append((f, g, chosen))
        f = frozenset(v for v in chosen if any(r.refines(v, u) for u in f))
        g = frozenset(v for v in chosen if any(r.refines(v, u) for u in g))
    start = seen[(f, g)]
    cycle = levels[start:]

    def stable(side):
        alive = set.intersection(*(set(level[side]) for level in cycle))
        return [v for v in sorted(alive) if r.refines(v, v) and all(v in level[2] for level in cycle)]

    label = lambda m: set_label(x.names, m)
    stable_f, stable_g = stable(0), stable(1)
    return {
        "levels": [
            {"f": sorted(map(label, lf)), "g": sorted(map(label, lg)), "chosen": list(map(label, ch))}
            for lf, lg, ch in levels
        ],
        "cycle_start": start,
        "stable_f": list(map(label, stable_f)),
        "stable_g": list(map(label, stable_g)),
        "k1": label(reduce(or_, stable_f, 0)),
        "k2": label(reduce(or_, stable_g, 0)),
    }


def literal_approx_axioms(r, limits=DEFAULT_LIMITS) -> Verdict:
    """The approximation axioms read off the pair set: a Warshall closure
    for the refinement cycles and a basis-point scan for each, with the
    axiom 0-2 tests interleaved per pair in sorted order."""
    x = r.space
    opens = x.opens(limits)
    open_set = set(opens)
    for u, v in sorted(r.pairs):
        if u not in open_set or v not in open_set:
            return Verdict(False, witness={"axiom": 0, "pair": (set_label(x.names, u), set_label(x.names, v)),
                                           "failure": "relation off the open family"})
        if u & ~v:
            return Verdict(False, witness={"axiom": 1, "pair": (set_label(x.names, u), set_label(x.names, v))})
        for w in opens:
            if not (v & ~w) and (u, w) not in r.pairs:
                return Verdict(False, witness={"axiom": 2,
                                               "instance": tuple(set_label(x.names, m) for m in (u, v, w))})
    for u in opens:
        for p in bits(u):
            if not any((o >> p) & 1 and (o, u) in r.pairs for o in opens):
                return Verdict(False, witness={"axiom": 3, "point": x.names[p], "open": set_label(x.names, u)})
    for cycle in _refinement_cycles(r, opens):
        family = sorted(cycle)
        points = _basis_points(x, family, opens)
        if len(points) != 1:
            return Verdict(False, witness={"axiom": 4,
                                           "cycle": tuple(set_label(x.names, m) for m in family),
                                           "basis_points": tuple(x.names[p] for p in points)})
    return Verdict(True, info={"checker": "validate_approx_relation", "pairs": len(r.pairs), "opens": len(opens)})


def _refinement_cycles(r, opens) -> list[set[int]]:
    """Mutual-refinement classes that contain at least one edge."""
    idx = {u: i for i, u in enumerate(opens)}
    n = len(opens)
    reach = [0] * n
    for u, v in r.pairs:
        if u in idx and v in idx:
            reach[idx[u]] |= 1 << idx[v]
    for k in range(n):
        bk = 1 << k
        for i in range(n):
            if reach[i] & bk:
                reach[i] |= reach[k]
    seen = set()
    cycles = []
    for i in range(n):
        if (reach[i] >> i) & 1 and i not in seen:
            comp = {j for j in bits(reach[i]) if (reach[j] >> i) & 1}
            seen |= comp
            cycles.append({opens[j] for j in comp})
    return cycles


def _basis_points(x, family, opens) -> list[int]:
    """Points for which the family is a neighborhood basis."""
    out = []
    for p in range(x.n):
        if any(not ((u >> p) & 1) for u in family):
            continue
        good = True
        for w in opens:
            if not ((w >> p) & 1):
                continue
            if not any((u >> p) & 1 and not (u & ~w) for u in family):
                good = False
                break
        if good:
            out.append(p)
    return out


def literal_preimage_identities(pw) -> list[tuple[str, str]]:
    """Every (identity, parameter) at which a canonical map's preimage
    identity fails, each family identity checked by one preimage per
    family; empty when all hold.  Listed in loop order: the opens of the
    base, then alpha over A(K(X)), beta and delta over O(O(X)), gamma
    over K(A(X))."""
    st, pp, ab, gd = sigma_tau(pw), phi_psi(pw), alpha_beta(pw), gamma_delta(pw)
    failures = []
    for u_idx, u in enumerate(pw.O.extents):
        box_dia = pw.KA.box(pw.diamonds[u_idx])
        dia_box = pw.AK.diamond(pw.boxes[u_idx])
        boxtimes = pw.OO.members[u_idx]
        for identity, f, opened, want in (
            ("sigma^-1(box diamond U) = diamond box U", st.forward, box_dia, dia_box),
            ("tau^-1(diamond box U) = box diamond U", st.backward, dia_box, box_dia),
            ("phi^-1(boxtimes U) = box diamond U", pp.forward, boxtimes, box_dia),
            ("psi^-1(box diamond U) = boxtimes U", pp.backward, box_dia, boxtimes),
        ):
            if f.preimage_mask(opened) != want:
                failures.append((identity, set_label(pw.base.names, u)))
    for i, fam in enumerate(pw.AK.extents):
        phi_sigma = pw.OO.extents[pp.forward.table[st.forward.table[i]]]
        if ab.forward.preimage_mask(pw.OK.diamond(fam)) != pw.AO.diamond(phi_sigma):
            failures.append(("alpha^-1(triangle F) = diamond phi(sigma(F))", pw.AK.space.names[i]))
    for i, fam in enumerate(pw.OO.extents):
        tau_psi = pw.AK.extents[st.backward.table[pp.backward.table[i]]]
        if ab.backward.preimage_mask(pw.AO.diamond(fam)) != pw.OK.diamond(tau_psi):
            failures.append(("beta^-1(diamond H) = triangle tau(psi(H))", pw.OO.space.names[i]))
        psi_h = pw.KA.extents[pp.backward.table[i]]
        if gd.backward.preimage_mask(pw.KO.box(fam)) != pw.OA.containing(psi_h):
            failures.append(("delta^-1(box H) = nabla psi(H)", pw.OO.space.names[i]))
    for i, fam in enumerate(pw.KA.extents):
        phi_fam = pw.OO.extents[pp.forward.table[i]]
        if gd.forward.preimage_mask(pw.OA.containing(fam)) != pw.KO.box(phi_fam):
            failures.append(("gamma^-1(nabla F) = box phi(F)", pw.KA.space.names[i]))
    return failures


def literal_associativity(t, struct) -> int | None:
    """The first family over t, T the kind of t, at which the square
    struct o mult = struct o T(struct) fails, or None.  The points of
    T(t) (lower sets of t for A, upper sets for K) are enumerated, never
    built.  A family goes one way to struct of the union of its extents,
    the other to struct of the closure (A) or saturation (K) of its
    image, the image living in struct's codomain."""
    lower = t.kind == KIND_LOWER
    families = enumerate_upper_sets(t.space.down if lower else t.space.up)
    hull = struct.codomain.down if lower else struct.codomain.up
    image_hulls = [hull[v] for v in struct.table]
    for fam in families:
        left = struct.table[t.point_of(union_of(t.extents, fam))]
        right = struct.table[t.point_of(union_of(image_hulls, fam))]
        if left != right:
            return fam
    return None


def literal_naturality_square(f, which, px, py) -> Verdict:
    """The named naturality square over a continuous f: X -> Y, px and py
    the towers over X and Y, composed literally: every lift a validated
    functor_map SpaceMap, lifted from the lift of its tail, and each side
    of the square a compose.  The verdict, and on a failure the witness
    (the first point where the sides differ), are check_naturality's."""
    builder, dom, cod, direction = _SQUARES[which]
    lifts = {"": f}

    def lift(word):
        if word not in lifts:
            src, dst = (py, px) if word.count(KIND_OPENS) % 2 else (px, py)
            lifts[word] = functor_map(lift(word[1:]), getattr(src, word), getattr(dst, word))
        return lifts[word]

    tx, ty = builder(px), builder(py)
    if cod.count(KIND_OPENS) % 2:
        tx, ty = ty, tx
    before, after = lift(dom), lift(cod)
    if direction == "backward":
        before, after = after, before
    left = compose(getattr(ty, direction), before)
    right = compose(after, getattr(tx, direction))
    for i, (a, b) in enumerate(zip(left.table, right.table)):
        if a != b:
            witness = {"square": which, "point": left.domain.names[i],
                       "left": left.codomain.names[a], "right": left.codomain.names[b]}
            return Verdict(False, witness=witness)
    return Verdict(True, info={"checker": "check_naturality", "square": which, "points": left.domain.n})


def literal_naturality_records(max_points, include_empty, limits=DEFAULT_LIMITS) -> list[tuple]:
    """(name, subject, passed, witness) per ordered pair of spaces of at
    most max_points, as suites._naturality_records lists its records:
    every continuous map between the two and every square, in _SQUARES
    order, composed literally, the witness naming the first failing map
    and square."""
    spaces = [s for s in enumerate_spaces(max_points) if include_empty or s.n]
    towers = [Powers(s, limits) for s in spaces]
    out = []
    for px, py in product(towers, repeat=2):
        witness = None
        for f in iter_continuous_maps(px.base, py.base):
            for which in _SQUARES:
                v = literal_naturality_square(f, which, px, py)
                if not v.holds:
                    witness = {"map": list(f.table), "square": which, "detail": v.witness}
                    break
            if witness is not None:
                break
        subject = f"n{px.base.n}-{px.base.fingerprint}->n{py.base.n}-{py.base.fingerprint}"
        out.append(("naturality", subject, witness is None, witness))
    return out
