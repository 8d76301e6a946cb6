"""Built-in data: dual-lattice vectors adapted to the standard maximal
strongly orthogonal systems, and the coordinate identities used by the
compact-Cartan constructions."""

from __future__ import annotations

from fractions import Fraction

from .rootsys import RootSystem, _vec, build


def _roots(system: RootSystem, slot_lists) -> list[int]:
    """The indices of the roots with the value c at each 0-based position k
    of the (k, c) slots of each list, zero elsewhere."""
    return [system.root_index(_vec(system.dim, *slots)) for slots in slot_lists]


def _pairs(k: int, signs=(-1, 1)):
    """e_{2i-1} + s e_{2i} for i <= k and each sign s, as slot lists."""
    return [((2 * i, 1), (2 * i + 1, s)) for i in range(k) for s in signs]


def standard_max_sos(system: RootSystem) -> list[int]:
    """The reference maximal strongly orthogonal system per family."""
    fam, rank = system.spec.family, system.rank
    if fam == "A":
        slots = _pairs((rank + 1) // 2, (-1,))
    elif fam in ("B", "D"):
        slots = _pairs(rank // 2) + ([((rank - 1, 1),)] if fam == "B" and rank % 2 else [])
    elif fam == "C":
        # short pairs then doubled basis vectors, one maximal per (r1, r2)
        slots = _pairs(rank // 2, (1,)) + ([((rank - 1, 2),)] if rank % 2 else [])
    elif fam in ("E6", "F4"):
        slots = _pairs(2)
    elif fam == "E7":
        slots = _pairs(3) + [((6, 1), (7, 1))]
    elif fam == "E8":
        slots = _pairs(4)
    elif fam == "G2":
        slots = [((0, 1), (1, -1)), ((0, 1), (1, 1), (2, -2))]
    else:
        raise ValueError("no reference system for %r" % fam)
    return _roots(system, slots)


def adapted_dual_vector(system: RootSystem) -> tuple[Fraction, ...]:
    """The dual-lattice vector pairing to one with the reference system."""
    fam, rank, n = system.spec.family, system.rank, system.dim
    if fam == "C":
        return (Fraction(1, 2),) * n
    # e_1 + e_3 + ... + e_{2h-1}, less its mean for A
    h = {"A": (rank + 1) // 2, "B": (rank + 1) // 2, "D": rank // 2, "E6": 2, "F4": 2,
         "E7": 4, "E8": 4, "G2": 1}.get(fam)
    if h is None:
        raise ValueError("no dual vector for %r" % fam)
    shift = Fraction(h, rank + 1) if fam == "A" else 0
    return tuple(Fraction(int(k % 2 == 0 and k < 2 * h)) - shift for k in range(n))


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
    alt = _roots(f4, _pairs(1) + [((2, 1),)])
    rows.append(("F4'", f4, adapted_dual_vector(f4), alt))
    return rows


def compact_chain_sos(system: RootSystem) -> list[int]:
    """The reference system driving the compact-chamber transform chain.

    Same as the dual-vector reference except for type C, whose chain runs
    through the doubled coordinate vectors (all long)."""
    if system.spec.family == "C":
        return _roots(system, [((k, 2),) for k in range(system.rank)])
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
