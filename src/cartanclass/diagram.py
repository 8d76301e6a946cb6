"""Adapted chambers and decorated Dynkin diagrams.

An S-chamber for an involution is one in which every complex positive
root keeps a positive image; on such a chamber the involution is fully
encoded by blackening the negated simple roots and joining paired white
nodes by arrows.  Sign data of a real form refines black nodes into
compact and noncompact ones.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .involution import Involution, _orthogonal_components
from .rootsys import (CartanclassError, Chamber, RootSystem, RootSystemError, RootSystemSpec,
                      _coordinate_rows, build)
from .weylgroup import perm_mul

WHITE, BLACK, STAR = "white", "black", "star"


class DiagramError(CartanclassError):
    pass


# -- chamber adaptation -----------------------------------------------------------


def is_s_chamber(theta: Involution, chamber: Chamber) -> bool:
    """Every complex positive root has a positive image."""
    pos = chamber.positive_set
    return all(theta(i) in pos for i in chamber.positive_set
               if i in theta.complex_set)


def is_v_chamber(theta: Involution, chamber: Chamber) -> bool:
    """S-chamber condition for the negated involution."""
    check = Involution(theta.system, perm_mul(tuple(theta.system.negation_map), theta.perm))
    return is_s_chamber(check, chamber)


def find_s_chamber(theta: Involution) -> Chamber:
    """Deterministic S-chamber of the split witness t*H+ + H-, t large.

    The seed h = sum_j scale^j omega_j is a positive combination of the
    coweights; geometric weights grow until H+ stays off every non-negated
    root wall.  H+ vanishes on the negated roots, where H- = h: the chamber
    is the roots with H+ > 0 and the negated roots with h > 0.  Pairings
    are integers read off the canonical coordinates, <alpha, h> =
    sum_j scale^j c_j(alpha), and <alpha, theta h> = <theta alpha, h>."""
    R = theta.system
    ch = R.canonical_chamber()
    movers = [i for i in range(len(R)) if i not in theta.imaginary_set]
    if not movers:
        return ch
    for scale in range(1, 65):
        h = [sum(c * scale ** j for j, c in enumerate(ch.coords(i)))
             for i in range(len(R))]
        if not all(h):
            continue
        # twice the pairings with H+ = (h + theta h)/2
        plus = [x + h[theta(i)] for i, x in enumerate(h)]
        if any(plus[i] == 0 for i in movers):
            continue
        pos = frozenset(i for i, x in enumerate(plus) if x > 0 or (x == 0 and h[i] > 0))
        chamber = Chamber(R, R.simple_roots(pos))
        if not is_s_chamber(theta, chamber):
            raise DiagramError("constructed chamber fails the S condition")
        return chamber
    raise DiagramError("witness construction degenerated")


def basis_partition(theta: Involution, chamber: Chamber):
    """(circ, bullet, oplus, ominus) index sets over the chamber basis."""
    circ, bullet, oplus, ominus = set(), set(), set(), set()
    for b in chamber.basis:
        if b in theta.real_set:
            circ.add(b)
        elif b in theta.imaginary_set:
            bullet.add(b)
        elif theta(b) in chamber.positive_set:
            oplus.add(b)
        else:
            ominus.add(b)
    return frozenset(circ), frozenset(bullet), frozenset(oplus), frozenset(ominus)


def theta_on_simple(theta: Involution, chamber: Chamber, b: int) -> tuple[int, dict[int, int]]:
    """Image of a non-negated simple root as (simple root, black tail).

    Returns (b', tail) with theta(b) = b' + sum(tail) and tail supported on
    the negated simple roots with nonnegative coefficients."""
    R = theta.system
    if not is_s_chamber(theta, chamber):
        raise DiagramError("the chamber given for %s is not an S-chamber for the involution"
                           % R.root_name(b))
    if b in theta.imaginary_set:
        raise DiagramError("%s is negated; it has no tail decomposition" % R.root_name(b))
    img = theta(b)
    cs = chamber.coords(img)
    prime = None
    tail: dict[int, int] = {}
    for pos, k in enumerate(cs):
        if k == 0:
            continue
        root = chamber.basis[pos]
        if root in theta.imaginary_set:
            if k < 0:
                raise DiagramError("the image of %s has a negative black tail coefficient"
                                   % R.root_name(b))
            tail[root] = k
        else:
            if prime is not None or k != 1:
                raise DiagramError("the image of %s is not simple plus a black tail"
                                   % R.root_name(b))
            prime = root
    if prime is None:
        raise DiagramError("the image of %s has no simple part" % R.root_name(b))
    return prime, tail


def chamber_with_imaginary_basis(theta: Involution, bprime) -> Chamber:
    """An S-chamber whose negated simple roots are exactly the given basis
    of the negated subsystem.

    Starting from the S-chamber of find_s_chamber, the chamber is reflected
    across the first root of the basis that is negative on it; the positive
    set moves along, pos(s_b C) = s_b pos(C).  Each step depends on the
    chamber alone, so a walk that does not end comes back to a chamber."""
    R = theta.system
    bprime = tuple(bprime)
    for b in bprime:
        if b not in theta.imaginary_set:
            raise DiagramError("%s is not negated by the involution" % R.root_name(b))
    # a simple basis of the negated subsystem reaches every negated root
    rows = _coordinate_rows(R, bprime)
    missed = next((i for i in sorted(theta.imaginary_set) if rows[i] is None), None)
    if missed is not None:
        raise DiagramError("the set is not a simple basis of the negated subsystem: "
                           "it does not reach %s" % R.root_name(missed))
    pos = find_s_chamber(theta).positive_set
    seen = set()
    while (bad := next((b for b in bprime if b not in pos), None)) is not None:
        if pos in seen:
            raise DiagramError("the imaginary dominance walk does not terminate: it comes "
                               "back to a chamber where %s is negative" % R.root_name(bad))
        seen.add(pos)
        s = R.reflection_perm(bad)
        pos = frozenset(s[i] for i in pos)
    chamber = Chamber(R, R.simple_roots(pos))
    if not is_s_chamber(theta, chamber):
        raise DiagramError("adapted chamber lost the S condition")
    differ = sorted(frozenset(bprime) ^ (frozenset(chamber.basis) & theta.imaginary_set))
    if differ:
        raise DiagramError("the requested negated basis was not realized: %s differs"
                           % R.root_name(differ[0]))
    return chamber


# -- canonical node order -----------------------------------------------------------


def canonical_node_order(system: RootSystem, basis) -> tuple[int, ...]:
    """Order a simple basis to match the canonical basis layout.

    Finds the norm- and pairing-preserving bijection onto the canonical
    basis, lexicographically minimal in the resulting index tuple;
    s_diagram chooses among all of them by the drawing."""
    basis = sorted(basis)
    if len(basis) != len(system.canonical_basis):
        raise DiagramError("basis size does not match the rank")
    order = next(system.basis_isomorphisms(basis, system.canonical_basis), None)
    if order is None:
        raise DiagramError("basis does not match the canonical diagram shape")
    return order


# -- diagrams ------------------------------------------------------------------------


class Diagram(NamedTuple):
    family: str
    rank: int
    realization: str
    colors: tuple[str, ...]
    bonds: tuple[tuple[int, int, int, int], ...]  # (i, j, mult, direction)
    arrows: frozenset[frozenset[int]]
    node_roots: tuple[int, ...] | None = None  # the root at each node; not compared

    def __eq__(self, other):
        return isinstance(other, Diagram) and self[:6] == other[:6]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:6])

    def black_positions(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.colors) if c in (BLACK, STAR))

    def star_positions(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.colors) if c == STAR)

    def validate(self) -> None:
        if len(self.colors) != self.rank:
            raise DiagramError("diagram has %d nodes for rank %d" % (len(self.colors), self.rank))
        for k, c in enumerate(self.colors):
            if c not in _SYMBOL:
                raise DiagramError("node %d has unknown color %r" % (k, c))
        seen: set[int] = set()
        for pair in sorted(sorted(p) for p in self.arrows):
            if len(pair) != 2:
                raise DiagramError("arrow joins node %d to itself" % pair[0])
            for k in pair:
                if not 0 <= k < self.rank:
                    raise DiagramError("arrow endpoint node %d is not on the diagram" % k)
                if k in seen:
                    raise DiagramError("node %d lies in two arrows" % k)
                if self.colors[k] != WHITE:
                    raise DiagramError("arrow endpoint node %d is not white" % k)
                seen.add(k)
        R = _system_of(self)
        want = _bonds_of_basis(R, R.canonical_basis)
        bad = next((b for b in self.bonds + want if b not in want or b not in self.bonds), None)
        if bad is not None:
            raise DiagramError("bond %s (i, j, mult, dir) %s the %s diagram" % (
                bad, "is missing from" if bad in want else "is not a bond of", R.spec.label))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "type": self.family,
            "rank": self.rank,
            "realization": self.realization,
            "nodes": [{"index": i, "color": c} for i, c in enumerate(self.colors)],
            "bonds": [{"i": i, "j": j, "mult": m, "dir": d} for i, j, m, d in self.bonds],
            "arrows": sorted(sorted(p) for p in self.arrows),
        }

    @staticmethod
    def from_json(data: dict) -> "Diagram":
        colors = {nd["index"]: nd["color"] for nd in data["nodes"]}
        d = Diagram(
            family=data["type"], rank=data["rank"],
            realization=data.get("realization", "standard"),
            colors=tuple(colors.get(k) for k in range(len(data["nodes"]))),
            bonds=tuple((b["i"], b["j"], b["mult"], b["dir"]) for b in data["bonds"]),
            arrows=frozenset(frozenset(p) for p in data["arrows"]),
        )
        d.validate()
        return d

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_json(), indent=2, sort_keys=True)
        if fmt == "ascii":
            return _render_ascii(self)
        if fmt == "dot":
            return _render_dot(self)
        raise DiagramError("unknown format %r" % (fmt,))


_SYMBOL = {WHITE: "o", BLACK: "*", STAR: "x"}


def _layout(family: str, rank: int, realization: str):
    """(chain positions, attach position, stacked branch positions)."""
    if family in ("A", "B", "C", "F4", "G2"):
        return list(range(rank)), None, []
    if family == "D":
        return list(range(rank - 1)), rank - 3, [rank - 1]
    if family in ("E6", "E7", "E8"):
        if realization == "prime":
            return list(range(rank - 1)), 2, [rank - 1]
        return list(range(2, rank)), 3, [1, 0]
    raise DiagramError("no layout for family %r" % (family,))


def _bond_str(mult: int, direction: int) -> str:
    if mult <= 1:
        return "---"
    if mult == 2:
        return "==>" if direction > 0 else "<=="
    return "=3>" if direction > 0 else "<3="


def _render_ascii(d: Diagram) -> str:
    chain, attach, stack = _layout(d.family, d.rank, d.realization)
    bond_of = {}
    for i, j, m, dr in d.bonds:
        bond_of[(i, j)] = (m, dr)
        bond_of[(j, i)] = (m, -dr)
    cells = []
    offsets = {}
    col = 0
    line = []
    for k, pos in enumerate(chain):
        line.append(_SYMBOL[d.colors[pos]])
        offsets[pos] = col
        col += 1
        if k + 1 < len(chain):
            m, dr = bond_of.get((pos, chain[k + 1]), (1, 0))
            s = _bond_str(m, dr)
            line.append(s)
            col += len(s)
    lines = ["".join(line)]
    if stack:
        at = offsets[chain[attach]] if attach is not None else 0
        for pos in stack:
            lines.append(" " * at + "|")
            lines.append(" " * at + _SYMBOL[d.colors[pos]])
    if d.arrows:
        pairs = sorted(tuple(sorted(p)) for p in d.arrows)
        lines.append("arrows: " + " ".join("%d<->%d" % (i + 1, j + 1) for i, j in pairs))
    return "\n".join(lines) + "\n"


def _render_dot(d: Diagram) -> str:
    out = ["graph diagram {"]
    for i, c in enumerate(d.colors):
        if c == WHITE:
            attrs = "shape=circle"
        elif c == BLACK:
            attrs = "shape=circle style=filled fillcolor=black"
        else:
            attrs = "shape=doublecircle"
        out.append('  n%d [label="%d" %s];' % (i, i + 1, attrs))
    for i, j, m, dr in d.bonds:
        style = "" if m == 1 else ' [penwidth=%d label="%d"]' % (m, m)
        out.append("  n%d -- n%d%s;" % (i, j, style))
    for pair in sorted(tuple(sorted(p)) for p in d.arrows):
        out.append("  n%d -- n%d [style=dashed constraint=false];" % pair)
    out.append("}")
    return "\n".join(out) + "\n"


# -- diagram construction -------------------------------------------------------------


def _bonds_of_basis(system: RootSystem, order) -> tuple:
    bonds = []
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            i, j = order[a], order[b]
            m = system.pairing(i, j) * system.pairing(j, i)
            if m:
                direction = 0
                if system._norms[i] > system._norms[j]:
                    direction = 1
                elif system._norms[i] < system._norms[j]:
                    direction = -1
                bonds.append((a, b, m, direction))
    return tuple(bonds)


def _arrow_key(rank: int, arrows) -> tuple:
    # prefer arrows near the tail of the node order (the fork pair in D)
    return tuple(sorted((rank - 1 - j, rank - 1 - i)
                        for i, j in (tuple(sorted(p)) for p in arrows)))


def s_diagram(theta: Involution, chamber: Chamber) -> Diagram:
    """Decorated Dynkin diagram of the involution on an S-chamber.

    Of the orders of the chamber basis that match the canonical basis, the
    drawing takes the one with the least (colors, arrow key, node roots):
    nodes read black first, arrows sit near the tail of the order, and
    node_roots is the root at each drawn node."""
    R = theta.system
    if R.factors is not None:
        raise DiagramError("diagrams are drawn per irreducible factor")
    basis = sorted(chamber.basis)
    image = {b: theta_on_simple(theta, chamber, b)[0] for b in basis
             if b not in theta.imaginary_set and b not in theta.real_set}
    best = None
    for order in R.basis_isomorphisms(basis, R.canonical_basis):
        pos_of = {b: k for k, b in enumerate(order)}
        colors = tuple(BLACK if b in theta.imaginary_set else WHITE for b in order)
        arrows = frozenset(frozenset((pos_of[b], pos_of[p])) for b, p in image.items() if p != b)
        key = (colors, _arrow_key(R.rank, arrows), order)
        if best is None or key < best[0]:
            best = key, arrows
    if best is None:
        raise DiagramError("basis does not match the canonical diagram shape")
    (colors, _, order), arrows = best
    d = Diagram(R.spec.family, R.rank, R.spec.realization, colors,
                _bonds_of_basis(R, order), arrows, node_roots=order)
    d.validate()
    return d


def sigma_diagram(sigma, chamber: Chamber) -> Diagram:
    """S-diagram with noncompact negated simple roots starred."""
    base = s_diagram(sigma.theta, chamber)
    colors = list(base.colors)
    for k, b in enumerate(base.node_roots):
        if b in sigma.noncompact_set:
            colors[k] = STAR
    return Diagram(base.family, base.rank, base.realization, tuple(colors),
                   base.bonds, base.arrows, node_roots=base.node_roots)


# -- admissibility -------------------------------------------------------------------


def _system_of(d: Diagram) -> RootSystem:
    """The diagram's system; build gets the command line's arguments, which traced runs record."""
    try:
        RootSystemSpec(d.family, d.rank, d.realization)  # a wrong rank raises here
        return build(d.family, d.rank if d.family in "ABCD" else None, d.realization)
    except RootSystemError as exc:
        raise DiagramError("no root system for the diagram: %s" % exc) from exc


def admissible(d: Diagram) -> tuple[bool, str]:
    """Whether some involution draws the diagram on an S-chamber; returns
    (flag, reason).

    The rule: the node map tau that swaps the ends of each arrow, acts on
    each black component as its opposition involution -w_B, and fixes every
    other node must be a diagram symmetry.  If theta draws the diagram, each
    white simple root goes to a simple root plus a black tail, so the
    negated roots lie in the span of the black set B, theta(positive roots)
    = w_B(positive roots), and tau = w_B theta keeps the positive roots.
    Conversely tau keeps B, so it commutes with w_B, and theta = w_B tau is
    an involution that draws the diagram on the canonical chamber."""
    d.validate()
    R = _system_of(d)
    cb = R.canonical_basis
    pos = R.canonical_chamber().positive_set
    black = [cb[k] for k in sorted(d.black_positions())]
    # w_B, the longest element of the black subgroup: lengthen by a black
    # reflection while some black root keeps a positive image
    w = tuple(range(len(R)))
    while (b := next((b for b in black if w[b] in pos), None)) is not None:
        w = perm_mul(w, R.reflection_perm(b))
    at = {b: k for k, b in enumerate(cb)}
    tau = list(range(d.rank))
    for i, j in map(tuple, d.arrows):
        tau[i], tau[j] = j, i
    for b in black:
        tau[at[b]] = at[R.negation_map[w[b]]]
    if tuple(tau) in R.diagram_symmetries:
        return True, "arrows and black opposition form a diagram symmetry"
    pm = R.pairing_matrix
    k, j = next((k, j) for k in range(d.rank) for j in range(d.rank)
                if pm[cb[k]][cb[j]] != pm[cb[tau[k]]][cb[tau[j]]])
    return False, ("node %d goes to node %d and node %d to node %d, which changes "
                   "their bond" % (k, tau[k], j, tau[j]))


# -- restricted sigma-diagrams ----------------------------------------------------------


def restrict_sigma(sigma, chamber: Chamber | None = None):
    """Re-choose the negated simple roots so that every cluster of black
    nodes carries at most one noncompact root.

    Returns (sigma, chamber); the sign data is untouched, only the
    chamber moves (norm-descent on the parity lattice per black cluster)."""
    theta = sigma.theta
    R = theta.system
    if chamber is None:
        chamber = find_s_chamber(theta)
    bullets = [b for b in chamber.basis if b in theta.imaginary_set]
    if not bullets:
        return sigma, chamber
    new_basis: list[int] = []
    for comp in _orthogonal_components(R, bullets):
        stars = [b for b in comp if b in sigma.noncompact_set]
        if len(stars) <= 1:
            new_basis.extend(comp)
            continue
        new_basis.extend(_one_star_basis(R, sigma, comp))
    new_chamber = chamber_with_imaginary_basis(theta, sorted(new_basis))
    new_bullets = [b for b in new_chamber.basis if b in theta.imaginary_set]
    for comp in _orthogonal_components(R, new_bullets):
        n_stars = sum(1 for b in comp if b in sigma.noncompact_set)
        if n_stars > 1:
            raise DiagramError("descent left a cluster with several stars")
    return sigma, new_chamber


def _one_star_basis(R: RootSystem, sigma, comp: list[int]) -> list[int]:
    """Norm-descent inside one black cluster: find a basis of the cluster
    subsystem in which exactly one simple root is noncompact.

    The vector h0 of the cluster's span pairs to 1 with the noncompact roots
    of comp and to 0 with the others; it is kept as its integer products
    with the roots of the cluster (coordinates in comp times those values).
    Subtracting twice the coweight of the basis root pick subtracts twice
    the coordinate at pick in the current basis."""
    h0 = {i: sum(c for c, b in zip(row, comp) if b in sigma.noncompact_set)
          for i, row in enumerate(_coordinate_rows(R, comp)) if row is not None}
    basis = list(comp)
    for _ in range(100_000):
        bad = next((b for b in basis if h0[b] < 0), None)
        if bad is not None:
            s = R.reflection_perm(bad)
            basis = [s[x] for x in basis]
            continue
        pick = next((b for b in basis if h0[b] > 0), None)
        if pick is None:
            raise DiagramError("descent in the cluster of %s reached the zero vector"
                               % R.root_name(comp[0]))
        if all(h0[b] == (b == pick) for b in basis):
            return basis
        k = basis.index(pick)
        rows = _coordinate_rows(R, basis)
        h0 = {i: v - 2 * rows[i][k] for i, v in h0.items()}
    raise DiagramError("parity descent in the cluster of %s did not terminate"
                       % R.root_name(comp[0]))
