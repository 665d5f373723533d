#!/usr/bin/env python3
"""Export Hasse diagrams of the constructions over a named small space.

Usage: python3 scripts/export_diagrams.py [sierpinski|pair|chain3] [outdir]
"""

import pathlib
import sys

from powerspace.core import antichain, chain, sierpinski
from powerspace.powerspaces import (
    convex_powerspace,
    lower_powerspace,
    open_lattice,
    to_dot,
    upper_powerspace,
)

SPACES = {
    "sierpinski": sierpinski,
    "pair": lambda: antichain(2, names=("a", "b")),
    "chain3": lambda: chain(3),
}


def main() -> int:
    name = sys.argv[1] if len(sys.argv) > 1 else "sierpinski"
    if name not in SPACES:
        print(f"usage: export_diagrams.py [{'|'.join(SPACES)}] [outdir]", file=sys.stderr)
        return 2
    outdir = pathlib.Path(sys.argv[2] if len(sys.argv) > 2 else "diagrams")
    outdir.mkdir(parents=True, exist_ok=True)
    base = SPACES[name]()
    built = {
        "A": lower_powerspace(base),
        "K": upper_powerspace(base),
        "L": convex_powerspace(base),
        "O": open_lattice(base),
    }
    built["KA"] = upper_powerspace(built["A"])
    built["OO"] = open_lattice(built["O"])
    for tag, cs in built.items():
        path = outdir / f"{name}_{tag}.dot"
        path.write_text(to_dot(cs))
        print(f"{cs.label:<10} {cs.space.n:>3} points -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
