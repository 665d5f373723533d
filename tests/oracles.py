"""Literal quantifiers kept as test oracles for the library's shortcuts."""


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
