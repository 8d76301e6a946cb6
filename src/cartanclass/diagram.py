"""Adapted chambers and decorated Dynkin diagrams.

An S-chamber for an involution is one in which every complex positive
root keeps a positive image; on such a chamber the involution is fully
encoded by blackening the negated simple roots and joining paired white
nodes by arrows.  Sign data of a real form refines black nodes into
compact and noncompact ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import _linalg as la
from .involution import Involution, _orthogonal_components
from .rootsys import Chamber, RootSystem
from .weylgroup import perm_mul

WHITE, BLACK, STAR = "white", "black", "star"


class DiagramError(ValueError):
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
    """Deterministic S-chamber from the split witness t*H+ + H-.

    The seed h = sum_j scale^j omega_j is a positive combination of the
    coweights; geometric weights grow until the averaged part stays off
    every non-negated root wall.  Pairings are integers read off the
    canonical coordinates, <alpha, h> = sum_j scale^j c_j(alpha), and
    <alpha, theta h> = <theta alpha, h>."""
    R = theta.system
    ch = R.canonical_chamber()
    movers = [i for i in range(len(R.roots)) if i not in theta.imaginary_set]
    if not movers:
        return ch
    for scale in range(1, 65):
        h = [sum(c * scale ** j for j, c in enumerate(ch.coords(i)))
             for i in range(len(R.roots))]
        if not all(h):
            continue
        # twice the pairings with H+ = (h + theta h)/2 and H- = (h - theta h)/2
        plus = [x + h[theta(i)] for i, x in enumerate(h)]
        minus = [x - h[theta(i)] for i, x in enumerate(h)]
        if any(plus[i] == 0 for i in movers):
            continue
        maxb = max(abs(x) for x in minus)
        mina = min(abs(plus[i]) for i in movers)
        t = 1 - (-maxb // mina)  # 1 + ceil(maxb / mina)
        w = [t * x + y for x, y in zip(plus, minus)]
        witness = la.mat_vec(la.transpose(R.fundamental_coweights),
                             [Fraction(w[b], 2) for b in ch.basis])
        pos = frozenset(i for i, x in enumerate(w) if x > 0)
        chamber = Chamber(R, R.simple_roots(pos), witness)
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
    if not is_s_chamber(theta, chamber):
        raise DiagramError("chamber is not an S-chamber for the involution")
    if b in theta.imaginary_set:
        raise DiagramError("simple root is negated; no tail decomposition")
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
                raise DiagramError("negative black tail coefficient")
            tail[root] = k
        else:
            if prime is not None or k != 1:
                raise DiagramError("image is not simple plus a black tail")
            prime = root
    if prime is None:
        raise DiagramError("no simple part in the image")
    return prime, tail


def chamber_with_imaginary_basis(theta: Involution, bprime) -> Chamber:
    """An S-chamber whose negated simple roots are exactly the given basis
    of the negated subsystem."""
    R = theta.system
    bprime = tuple(bprime)
    for b in bprime:
        if b not in theta.imaginary_set:
            raise DiagramError("root %d is not negated by the involution" % b)
    # must integrally span the negated subsystem with uniform signs
    span = [R.roots[b] for b in bprime]
    for i in theta.imaginary_set:
        sol = la.solve(span, R.roots[i])
        if sol is None or any(c.denominator != 1 for c in sol):
            raise DiagramError("set does not span the negated subsystem")
        if not (all(c >= 0 for c in sol) or all(c <= 0 for c in sol)):
            raise DiagramError("set is not a simple basis of the negated subsystem")
    c0 = find_s_chamber(theta)
    v = c0.witness
    guard = 0
    while True:
        bad = next((b for b in bprime if la.vdot(R.roots[b], v) < 0), None)
        if bad is None:
            break
        v = R.reflect_vec(v, R.roots[bad])
        guard += 1
        if guard > 10_000:
            raise DiagramError("imaginary dominance walk did not terminate")
    chamber = R.chamber_from_witness(v)
    if not is_s_chamber(theta, chamber):
        raise DiagramError("adapted chamber lost the S condition")
    if frozenset(bprime) != frozenset(chamber.basis) & theta.imaginary_set:
        raise DiagramError("requested negated basis was not realized")
    return chamber


# -- canonical node order -----------------------------------------------------------


def canonical_node_order(system: RootSystem, basis) -> tuple[int, ...]:
    """Order a simple basis to match the canonical basis layout.

    Finds the norm- and pairing-preserving bijection onto the canonical
    basis, lexicographically minimal in the resulting index tuple."""
    basis = sorted(basis)
    if len(basis) != len(system.canonical_basis):
        raise DiagramError("basis size does not match the rank")
    order = next(system.basis_isomorphisms(basis, system.canonical_basis), None)
    if order is None:
        raise DiagramError("basis does not match the canonical diagram shape")
    return order


# -- diagrams ------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagram:
    family: str
    rank: int
    realization: str
    colors: tuple[str, ...]
    bonds: tuple[tuple[int, int, int, int], ...]  # (i, j, mult, direction)
    arrows: frozenset[frozenset[int]]
    node_roots: tuple[int, ...] | None = field(default=None, compare=False)

    def color(self, pos: int) -> str:
        return self.colors[pos]

    def black_positions(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.colors) if c in (BLACK, STAR))

    def star_positions(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.colors) if c == STAR)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(self.rank)}
        for i, j, _, _ in self.bonds:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def validate(self) -> None:
        for pair in self.arrows:
            i, j = sorted(pair)
            if i == j:
                raise DiagramError("arrow joins a node to itself")
            if self.colors[i] != WHITE or self.colors[j] != WHITE:
                raise DiagramError("arrow endpoint is not white")

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
        colors = [None] * len(data["nodes"])
        for nd in data["nodes"]:
            colors[nd["index"]] = nd["color"]
        return Diagram(
            family=data["type"], rank=data["rank"],
            realization=data.get("realization", "standard"),
            colors=tuple(colors),
            bonds=tuple((b["i"], b["j"], b["mult"], b["dir"]) for b in data["bonds"]),
            arrows=frozenset(frozenset(p) for p in data["arrows"]),
        )

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
                if system.norm2(i) > system.norm2(j):
                    direction = 1
                elif system.norm2(i) < system.norm2(j):
                    direction = -1
                bonds.append((a, b, m, direction))
    return tuple(bonds)


def _arrow_key(rank: int, arrows) -> tuple:
    # prefer arrows near the tail of the node order (the fork pair in D)
    return tuple(sorted((rank - 1 - j, rank - 1 - i)
                        for i, j in (tuple(sorted(p)) for p in arrows)))


def _normalize(system: RootSystem, d: Diagram) -> Diagram:
    best = None
    for rho in system.diagram_symmetries:
        inv = {v: k for k, v in enumerate(rho)}
        colors = tuple(d.colors[rho[k]] for k in range(d.rank))
        arrows = frozenset(frozenset((inv[i], inv[j])) for i, j in
                           (tuple(p) for p in d.arrows))
        roots = tuple(d.node_roots[rho[k]] for k in range(d.rank))
        key = (colors, _arrow_key(d.rank, arrows), roots)
        if best is None or key < best[0]:
            best = (key, colors, arrows, roots)
    return Diagram(d.family, d.rank, d.realization, best[1],
                   d.bonds, best[2], node_roots=best[3])


def s_diagram(theta: Involution, chamber: Chamber) -> Diagram:
    """Decorated Dynkin diagram of the involution on an S-chamber."""
    R = theta.system
    if R.factors is not None:
        raise DiagramError("diagrams are drawn per irreducible factor")
    order = canonical_node_order(R, chamber.basis)
    pos_of = {b: k for k, b in enumerate(order)}
    colors = [BLACK if b in theta.imaginary_set else WHITE for b in order]
    arrows = set()
    for k, b in enumerate(order):
        if b in theta.imaginary_set or b in theta.real_set:
            continue
        prime, _ = theta_on_simple(theta, chamber, b)
        if prime != b:
            arrows.add(frozenset((k, pos_of[prime])))
    d = Diagram(R.spec.family, R.rank, R.spec.realization, tuple(colors),
                _bonds_of_basis(R, order), frozenset(arrows), node_roots=order)
    d = _normalize(R, d)
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


def admissible(d: Diagram) -> tuple[bool, str]:
    """Whether the diagram belongs to the per-family catalog of diagrams
    realizable by involutions; returns (flag, reason)."""
    d.validate()
    fam = d.family
    blk = d.black_positions()
    arrows = {tuple(sorted(p)) for p in d.arrows}
    adj = d.adjacency()
    if fam == "A":
        return _admissible_a(d, blk, arrows)
    if fam in ("B", "C"):
        if arrows:
            return False, "unexpected arrow on a chain without symmetry"
        comp = _component(adj, d.rank - 1, blk)
        rest = blk - comp
        if any(a in rest and b in rest for a in rest for b in adj[a]):
            return False, "adjacent black nodes outside the end component"
        return True, "end-component rule satisfied"
    if fam == "D":
        return _admissible_d(d, blk, arrows, adj)
    if fam == "E6":
        return _admissible_e6(d, blk, arrows, adj)
    if fam in ("E7", "E8"):
        if arrows:
            return False, "unexpected arrow"
        if len(blk) == d.rank:
            return True, "all black"
        shapes = _black_cluster_shapes(blk, adj)
        if shapes in ([], [("D", 4)], [("D", 6)], [("E", 7)]):
            return True, "black cluster shape admitted"
        return False, "black cluster shape %r not admitted" % (shapes,)
    if fam == "F4":
        if arrows:
            return False, "unexpected arrow"
        if blk == {0, 1} or blk == {2, 3}:
            return False, "forbidden half-chain black pattern"
        return True, "not one of the excluded patterns"
    if fam == "G2":
        return True, "all patterns admitted"
    raise DiagramError("no catalog for family %r" % (fam,))


def _component(adj, node, subset) -> frozenset[int]:
    if node not in subset:
        return frozenset()
    seen = {node}
    queue = [node]
    while queue:
        x = queue.pop()
        for y in adj[x]:
            if y in subset and y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def _admissible_a(d: Diagram, blk, arrows):
    l = d.rank
    sym_pairs = {(i, l - 1 - i) for i in range(l) if i < l - 1 - i}
    if not blk:
        if not arrows:
            return True, "plain diagram"
        if arrows == sym_pairs:
            return True, "full flip"
        return False, "arrows are not the full mirror pairing"
    block = sorted(blk)
    contiguous = all(block[k + 1] == block[k] + 1 for k in range(len(block) - 1))
    if contiguous and block[0] + block[-1] == l - 1:
        want = {(i, l - 1 - i) for i in range(block[0]) if i < l - 1 - i}
        if arrows == want:
            return True, "centered block with mirror arrows"
    if not arrows:
        adjacent = any(b + 1 in blk for b in blk)
        if not adjacent:
            return True, "isolated black nodes"
        return False, "adjacent black nodes off center"
    return False, "mixed arrows and blacks in a non-centered pattern"


def _admissible_d(d: Diagram, blk, arrows, adj):
    l = d.rank
    if arrows:
        if l == 4:
            outer = {0, 2, 3}
            if len(arrows) > 1:
                return False, "more than one fork arrow"
            (pair,) = arrows
            if not set(pair) <= outer:
                return False, "arrow off the fork nodes"
        else:
            if arrows != {(l - 2, l - 1)}:
                return False, "arrow off the fork pair"
        if any(d.colors[p] != WHITE for pair in arrows for p in pair):
            return False, "arrow endpoint is not white"
    non_isolated = {b for b in blk if adj[b] & blk}
    if non_isolated:
        comp = _component(adj, next(iter(non_isolated)), non_isolated)
        if comp != non_isolated:
            return False, "several clusters of adjacent black nodes"
        if len(comp) < 3:
            return False, "black cluster of size two"
        rest = set(range(l)) - comp
        if rest:
            start = next(iter(rest))
            seen = _component({k: v - comp for k, v in adj.items()}, start, rest)
            if seen != frozenset(rest):
                return False, "black cluster disconnects the diagram"
    return True, "fork rules satisfied"


def _admissible_e6(d: Diagram, blk, arrows, adj):
    center = next(i for i in range(d.rank) if len(adj[i]) == 3)
    arms = []
    for n in sorted(adj[center]):
        arm = [n]
        prev, cur = center, n
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            arm.append(cur)
        arms.append(arm)
    arms.sort(key=len)
    tip = arms[0][0]          # the length-one arm
    left, right = arms[1], arms[2]
    if len(blk) == d.rank:
        if arrows:
            return False, "arrows on an all-black diagram"
        return True, "all black"
    if not arrows:
        adjacent = any(adj[b] & blk for b in blk)
        if not adjacent:
            return True, "isolated black nodes"
        d4 = {center} | set(adj[center])
        if blk == d4:
            return True, "central fourfold cluster"
    # flip patterns: tip white, blacks symmetric and connected on the chain,
    # all remaining white chain nodes mirror-paired by arrows
    allowed_blacks = [set(), {center},
                      {center, left[0], right[0]},
                      {center, left[0], right[0], left[1], right[1]}]
    if d.colors[tip] == WHITE and blk in [frozenset(s) for s in allowed_blacks]:
        want = set()
        for k in range(2):
            if left[k] not in blk:
                want.add(tuple(sorted((left[k], right[k]))))
        if arrows == want:
            return True, "flip pattern"
    if arrows:
        return False, "arrows outside the flip pattern"
    return False, "adjacent black nodes outside the admitted clusters"


def _black_cluster_shapes(blk, adj):
    non_isolated = {b for b in blk if adj[b] & blk}
    shapes = []
    left = set(non_isolated)
    while left:
        comp = _component(adj, next(iter(sorted(left))), left)
        left -= comp
        shapes.append(_shape_name(comp, adj))
    return sorted(shapes)


def _shape_name(nodes: frozenset[int], adj) -> tuple[str, int]:
    k = len(nodes)
    degs = {n: len(adj[n] & nodes) for n in nodes}
    branch = [n for n, dg in degs.items() if dg == 3]
    if not branch:
        return ("A", k)
    arms = []
    b = branch[0]
    for n in sorted(adj[b] & nodes):
        ln = 1
        prev, cur = b, n
        while True:
            nxt = [x for x in (adj[cur] & nodes) if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        arms.append(ln)
    arms.sort()
    if arms[:2] == [1, 1]:
        return ("D", k)
    return ("E", k)


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
    subsystem in which exactly one simple root is noncompact."""
    span_cols = [R.roots[b] for b in comp]

    def solve_in_span(cond_roots, values):
        # H in span(comp) with dot(cond, H) = value for each condition
        cols = [tuple(la.vdot(R.roots[c], sc) for c in cond_roots)
                for sc in span_cols]
        sol = la.solve(cols, tuple(Fraction(v) for v in values))
        if sol is None:
            raise DiagramError("cluster gram system is singular")
        out = la.zero_vec(R.dim)
        for c, v in zip(sol, span_cols):
            out = la.vadd(out, la.vscale(c, v))
        return out

    h0 = solve_in_span(comp, [1 if b in sigma.noncompact_set else 0 for b in comp])
    basis = list(comp)
    guard = 0
    while True:
        guard += 1
        if guard > 100_000:
            raise DiagramError("parity descent did not terminate")
        bad = next((b for b in basis if la.vdot(R.roots[b], h0) < 0), None)
        if bad is not None:
            basis = [R.root_index(R.reflect_vec(R.roots[x], R.roots[bad]))
                     for x in basis]
            continue
        pick = next((b for b in basis if la.vdot(R.roots[b], h0) > 0), None)
        if pick is None:
            raise DiagramError("descent reached the zero vector")
        coweight = solve_in_span(basis, [1 if b == pick else 0 for b in basis])
        if coweight == h0:
            return basis
        h0 = la.vsub(h0, la.vscale(2, coweight))
