"""Built-in data: dual-lattice vectors adapted to the standard maximal
strongly orthogonal systems, and the coordinate identities used by the
compact-Cartan constructions."""

from __future__ import annotations

from fractions import Fraction

from . import _linalg as la
from ._linalg import e
from .rootsys import RootSystem, build

F = Fraction


def standard_max_sos(system: RootSystem) -> list[int]:
    """The reference maximal strongly orthogonal system per family."""
    fam, rank, n = system.spec.family, system.rank, system.dim
    vecs: list[la.Vector] = []
    if fam == "A":
        vecs = [la.vsub(e(2 * i - 1, n), e(2 * i, n))
                for i in range(1, (rank + 1) // 2 + 1)]
    elif fam == "B":
        for i in range(1, rank // 2 + 1):
            vecs.append(la.vsub(e(2 * i - 1, n), e(2 * i, n)))
            vecs.append(la.vadd(e(2 * i - 1, n), e(2 * i, n)))
        if rank % 2:
            vecs.append(e(rank, n))
    elif fam == "C":
        # short pairs then doubled basis vectors, one maximal per (r1, r2)
        r1 = rank // 2 if rank % 2 == 0 else (rank - 1) // 2
        r2 = rank - 2 * r1
        vecs = [la.vadd(e(2 * i - 1, n), e(2 * i, n)) for i in range(1, r1 + 1)]
        vecs += [la.vscale(2, e(2 * r1 + i, n)) for i in range(1, r2 + 1)]
    elif fam == "D":
        for i in range(1, rank // 2 + 1):
            vecs.append(la.vsub(e(2 * i - 1, n), e(2 * i, n)))
            vecs.append(la.vadd(e(2 * i - 1, n), e(2 * i, n)))
    elif fam == "E6":
        vecs = [la.vsub(e(1, n), e(2, n)), la.vadd(e(1, n), e(2, n)),
                la.vsub(e(3, n), e(4, n)), la.vadd(e(3, n), e(4, n))]
    elif fam == "E7":
        for i in (1, 2, 3):
            vecs.append(la.vsub(e(2 * i - 1, n), e(2 * i, n)))
            vecs.append(la.vadd(e(2 * i - 1, n), e(2 * i, n)))
        vecs.append(la.vadd(e(7, n), e(8, n)))
    elif fam == "E8":
        for i in (1, 2, 3, 4):
            vecs.append(la.vsub(e(2 * i - 1, n), e(2 * i, n)))
            vecs.append(la.vadd(e(2 * i - 1, n), e(2 * i, n)))
    elif fam == "F4":
        vecs = [la.vsub(e(1, n), e(2, n)), la.vadd(e(1, n), e(2, n)),
                la.vsub(e(3, n), e(4, n)), la.vadd(e(3, n), e(4, n))]
    elif fam == "G2":
        vecs = [la.vsub(e(1, n), e(2, n)),
                la.vsub(la.vadd(e(1, n), e(2, n)), la.vscale(2, e(3, n)))]
    else:
        raise ValueError("no reference system for %r" % fam)
    return [system.root_index(v) for v in vecs]


def adapted_dual_vector(system: RootSystem) -> la.Vector:
    """The dual-lattice vector pairing to one with the reference system."""
    fam, rank, n = system.spec.family, system.rank, system.dim
    if fam == "A":
        h = (rank + 1) // 2
        out = la.zero_vec(n)
        for i in range(1, h + 1):
            out = la.vadd(out, e(2 * i - 1, n))
        corr = la.vscale(F(h, rank + 1), tuple(la.ONE for _ in range(n)))
        return la.vsub(out, corr)
    if fam in ("B", "D"):
        h = (rank + 1) // 2 if fam == "B" else rank // 2
        out = la.zero_vec(n)
        for i in range(1, h + 1):
            out = la.vadd(out, e(2 * i - 1, n))
        return out
    if fam == "C":
        return tuple(F(1, 2) for _ in range(n))
    if fam == "E6" or fam == "F4":
        return la.vadd(e(1, n), e(3, n))
    if fam in ("E7", "E8"):
        out = la.zero_vec(n)
        for i in (1, 3, 5, 7):
            out = la.vadd(out, e(i, n))
        return out
    if fam == "G2":
        return e(1, n)
    raise ValueError("no dual vector for %r" % fam)


def dual_vector_table():
    """(label, system, omega, reference system indices) rows, ranks <= 8."""
    rows = []
    cases = [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)] + \
        [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)] + \
        [("E6", None), ("E7", None), ("E8", None), ("F4", None), ("G2", None)]
    for fam, rank in cases:
        system = build(fam, rank)
        rows.append((system.spec.label, system, adapted_dual_vector(system),
                     standard_max_sos(system)))
    # the second F4 reference system shares the same dual vector
    f4 = build("F4")
    alt = [f4.root_index(la.vsub(e(1, 4), e(2, 4))),
           f4.root_index(la.vadd(e(1, 4), e(2, 4))),
           f4.root_index(e(3, 4))]
    rows.append(("F4'", f4, adapted_dual_vector(f4), alt))
    return rows


def compact_chain_sos(system: RootSystem) -> list[int]:
    """The reference system driving the compact-chamber transform chain.

    Same as the dual-vector reference except for type C, whose chain runs
    through the doubled coordinate vectors (all long)."""
    if system.spec.family == "C":
        n = system.dim
        return [system.root_index(la.vscale(2, e(i, n)))
                for i in range(1, system.rank + 1)]
    return standard_max_sos(system)


def compact_cartan_identities(system: RootSystem):
    """Coordinate identities of the chain reference system over the
    canonical basis, as (root index, coefficient tuple) pairs.

    Every listed root has odd coefficient sum, which makes the whole
    reference system noncompact for the all-noncompact sign datum."""
    ch = system.canonical_chamber()
    out = []
    for idx in compact_chain_sos(system):
        out.append((idx, ch.coords(idx)))
    return out
