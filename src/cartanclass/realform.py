"""Real forms over a fixed split/compact pair, encoded by sign functions.

A real form with a chosen Cartan subalgebra is the pair (theta, f): the
root-system involution plus a sign on every root, subject to the cocycle
conditions tying the signs to the structure constants.  Negated roots
split into compact (+1) and noncompact (-1); Cayley conjugations on the
dense oracle move between Cartan subalgebras of the same form.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from . import _linalg as la
from .chevalley import DenseAlgebra, LinearMap, QuarterTurn, dense_algebra, structure_constants
from .diagram import find_s_chamber
from .involution import (Involution, InvolutionError, antipodal_involution, decompose,
                         first_max_clique, identity_involution, positive_representatives,
                         subsystem_components, table2_representatives)
from .rootsys import CartanclassError, RootSystem
from .weylgroup import identity_perm, perm_mul, weyl_group


class RealFormError(CartanclassError):
    pass


# -- sign characters ----------------------------------------------------------------


class SignHom:
    """Multiplicative sign character of the root lattice, kept as a bitmask
    over the simple roots of a chamber (the canonical one by default): bit
    k set means the sign -1 at basis[k].  The sign at a root is the parity
    of the mask on the root's odd coordinates."""

    def __init__(self, system: RootSystem, *, mask: int | None = None, chamber=None):
        self.system = system
        self.chamber = chamber or system.canonical_chamber()
        nbits = len(self.chamber.basis)
        if mask is None or not 0 <= mask < 1 << nbits:
            raise RealFormError("%s: a sign character takes a bitmask over the %d simple "
                                "roots, not %s" % (system.spec.label, nbits, mask))
        self.mask = mask

    def __call__(self, idx: int) -> int:
        return -1 if _parity(self.mask & self.chamber.parity_masks[idx]) else 1


def in_hom_theta(theta: Involution, eta: SignHom) -> bool:
    """Whether a sign character respects the involution: eta(theta alpha) =
    eta(alpha) for every root.  alpha -> eta(alpha) eta(theta alpha) is a
    character, so the parity rows of hom_theta_constraints decide."""
    rows, _ = hom_theta_constraints(theta, eta.chamber)
    return not any(_parity(eta.mask & row) for row in rows)


# -- the sign-function datum ---------------------------------------------------------


class AntiInvolution:
    """(theta, f): a real form fixing the split/compact reference pair,
    together with the Cartan subalgebra cut out by theta.

    f maps root indices to +-1; it always covers the negated roots; when
    full=True it covers every root and the cocycle laws are verified.  Only
    twist makes one without the pairwise check, from a datum that had it."""

    def __init__(self, theta: Involution, f: dict[int, int], full: bool | None = None):
        self._setup(theta, f, full)
        if self.full:
            self._verify_cocycle()

    def _setup(self, theta, f, full) -> None:
        """Everything but the pairwise cocycle law: the fields, the signs on
        the negated roots, and the O(n) checks of _verify_signs."""
        self.theta = theta
        self.system = theta.system
        self.f = dict(f)
        self.constants = structure_constants(self.system)
        if full is None:
            full = len(self.f) == len(self.system)
        self.full = full
        missing = [i for i in theta.imaginary_set if i not in self.f]
        if missing:
            raise RealFormError("signs missing on negated roots")
        self.compact_set = frozenset(i for i in theta.imaginary_set if self.f[i] == 1)
        self.noncompact_set = frozenset(i for i in theta.imaginary_set if self.f[i] == -1)
        self._verify_signs()

    def _verify_signs(self) -> None:
        R = self.system
        neg = R.negation_map
        for i, v in self.f.items():
            if v not in (1, -1):
                raise RealFormError("sign %r at %s is not +-1" % (v, R.root_name(i)))
            j = self.theta(i)
            if j in self.f and self.f[i] * self.f[j] != 1:
                raise RealFormError("sign at %s differs from the sign at its image %s "
                                    "under the involution" % (R.root_name(i), R.root_name(j)))
            if neg[i] in self.f and self.f[neg[i]] != self.f[i]:
                raise RealFormError("sign at %s differs from the sign at its negative %s"
                                    % (R.root_name(i), R.root_name(neg[i])))

    def _verify_cocycle(self) -> None:
        R = self.system
        table = self.constants._table
        sums = R.sum_table
        th = self.theta.perm
        f = self.f
        # the table holds N(i, j) for every pair whose sum is a root, none
        # zero; theta(j) is never +-theta(i), so N(theta i, theta j) is a read
        for (i, j), nij in table.items():
            if nij * f[sums[i][j]] != table.get((th[i], th[j]), 0) * f[i] * f[j]:
                raise RealFormError("cocycle law fails at %s and %s"
                                    % (R.root_name(i), R.root_name(j)))

    def to_json(self) -> dict:
        out = {
            "theta": self.theta.to_json(),
            "compact": sorted(self.compact_set),
            "noncompact": sorted(self.noncompact_set),
            "signature": signature(self).to_json(),
        }
        if self.full:
            ch = self.system.canonical_chamber()
            out["f_on_simple"] = {str(b): self.f[b] for b in ch.basis}
        try:
            out["name"] = identify(self).name
        except (RealFormError, InvolutionError):
            out["name"] = None
        return out

    def __repr__(self):
        return "AntiInvolution(%s, compact=%d, noncompact=%d)" % (
            self.system.spec.label, len(self.compact_set), len(self.noncompact_set))


# -- dense-oracle bridge --------------------------------------------------------------


def _signed_map(algebra: DenseAlgebra, perm, sign) -> LinearMap:
    """H_b -> H_perm(b) on the canonical coroots, X_i -> sign(i) X_perm(i)."""
    R, rank = algebra.system, algebra.rank
    cols = {k: algebra.coroot_elem(perm(b)) for k, b in enumerate(R.canonical_basis)}
    for i in range(len(R)):
        cols[rank + i] = {rank + perm(i): sign(i)}
    return LinearMap(algebra, cols)


def sigma_dense(algebra: DenseAlgebra, sigma: AntiInvolution) -> LinearMap:
    if not sigma.full:
        raise RealFormError("dense form needs the full sign function")
    return _signed_map(algebra, sigma.theta, sigma.f.__getitem__)


def psi_map(algebra: DenseAlgebra, eta: SignHom) -> LinearMap:
    return _signed_map(algebra, lambda i: i, eta)


def _extend_signs_by_height(theta: Involution, chamber, signs: dict[int, int]) -> dict[int, int]:
    """Extend +-1 signs on a chamber basis to every root.

    Positive roots are taken by height: g = b + rest with b simple and
    rest already signed gets f(g) = f(b) f(rest) N(theta b, theta rest) /
    N(b, rest); a negative root gets the sign of its negative.  Raises
    when a ratio is not a unit."""
    R = theta.system
    sums = R.sum_table
    neg = R.negation_map
    n = structure_constants(R).n
    f = dict(signs)
    for g in chamber.height_order:
        if g in f:
            continue
        piece = next((b for b in chamber.basis if sums[g][neg[b]] in f), None)
        if piece is None:
            raise RealFormError("no height reduction for positive %s" % R.root_name(g))
        rest = sums[g][neg[piece]]
        num = n(theta(piece), theta(rest))
        den = n(piece, rest)
        if num % den or abs(num // den) != 1:
            raise RealFormError("sign recurrence hit a non-unit ratio at %s"
                                % R.root_name(g))
        f[g] = (num // den) * f[piece] * f[rest]
    for g in chamber.height_order:
        f[neg[g]] = f[g]
    return f


def _datum_from_basis_signs(theta: Involution, chamber, signs: dict[int, int]) -> AntiInvolution:
    """The sign datum over theta with the given signs on the chamber basis,
    extended by height to every root; the cocycle law is checked."""
    R = theta.system
    for b in chamber.basis:
        if b not in signs:
            raise RealFormError("no sign given at %s of the chamber basis" % R.root_name(b))
        if signs[b] not in (1, -1):
            raise RealFormError("sign %r at %s is not +-1" % (signs[b], R.root_name(b)))
    f = _extend_signs_by_height(theta, chamber, {b: signs[b] for b in chamber.basis})
    return AntiInvolution(theta, f, full=True)


def eps_sharp_map(algebra: DenseAlgebra, eps: Involution, chamber) -> LinearMap:
    """The canonical lift fixing the chosen simple root vectors."""
    sign = _extend_signs_by_height(eps, chamber, dict.fromkeys(chamber.basis, 1))
    return _signed_map(algebra, eps, sign.__getitem__)


def _sign_datum(algebra: DenseAlgebra, theta: Involution, factors) -> AntiInvolution:
    """The sign datum of the automorphism factors[0] o ... o factors[-1]
    (dense maps or half turns), read off the simple root vectors: each
    X_{+-b}, b in the canonical basis, must go to exactly +-X_{theta(+-b)},
    with one sign for b and -b.  The signs extend by height to every root
    and the cocycle law is checked on the result."""
    R = theta.system
    ch = R.canonical_chamber()
    signs = {}
    for b in ch.basis:
        got = []
        for g in (b, R.negation_map[b]):
            v = algebra.x(g)
            for m in reversed(factors):
                v = m.apply(v)
            key = algebra.rank + theta(g)
            if v not in ({key: 1}, {key: -1}):
                raise RealFormError("the map does not send X at %s to +-X at "
                                    "its image under the involution" % R.root_name(g))
            got.append(1 if v[key] == 1 else -1)
        if got[0] != got[1]:
            raise RealFormError("sign differs between %s and its negative"
                                % R.root_name(b))
        signs[b] = got[0]
    return _datum_from_basis_signs(theta, ch, signs)


# -- dual-lattice vectors -------------------------------------------------------------


def omega_for_targets(system: RootSystem, b_indices, targets,
                      parity_of: Involution | None = None) -> SignHom | None:
    """The sign character of a dual-lattice vector omega with prescribed
    pairings against the given roots; with parity_of set, omega
    additionally pairs evenly with alpha - parity_of(alpha) for every root
    (so its character is compatible with that involution).  None when no
    such vector exists.  The unknowns are the pairings <alpha_k, omega>
    with the canonical simple roots, so the character is their parity."""
    ch = system.canonical_chamber()
    # one even-slack column per parity row: <row, omega> - 2 s = 0
    parity = _theta_differences(parity_of, ch) if parity_of is not None else []
    if not b_indices and not parity:
        return SignHom(system, mask=0)
    full_rows = [list(ch.coords(b)) + [0] * len(parity) for b in b_indices]
    full_rows += [list(row) + [-2 * (m == k) for m in range(len(parity))]
                  for k, row in enumerate(parity)]
    rhs = list(targets) + [0] * len(parity)
    sol = la.solve_integer(full_rows, rhs)
    if sol is None:
        return None
    return SignHom(system, mask=sum((c & 1) << k for k, c in enumerate(sol[:system.rank])))


def omega_for_set(system: RootSystem, b_indices) -> SignHom:
    """The sign character of a dual-lattice vector pairing to one with every
    root of a strongly orthogonal set (integer solve over the coweight basis)."""
    out = omega_for_targets(system, b_indices, [1] * len(list(b_indices)))
    if out is None:
        raise RealFormError("no integral vector pairs to one with the set")
    return out


# -- quasi-split lifts ----------------------------------------------------------------


def quasi_split_lift(theta: Involution) -> AntiInvolution:
    """The quasi-split sign datum over an involution: a sign character's map
    psi conjugated by the Cayley transform c = exp(pi/4 ad K_B) of the
    decomposition set B, times the canonical lift of the special part.  As
    psi negates every K_beta, c psi c^-1 = c^2 psi: one half turn.  The
    factors, right to left: [half, psi(omega)], omega pairing to one with B;
    with a special part eps, [eps#, psi(mu), half, psi(omega)], omega and mu
    compatible with eps and mu odd at the b in B with eps# X_b = -X_eps(b);
    in type A_2m, where no such pair exists, mu = omega pairing to one with B."""
    R = theta.system
    if R.factors is not None:
        raise RealFormError("lifts are computed per irreducible factor")
    A = dense_algebra(structure_constants(R))
    eps, b_set = decompose(theta)
    if eps.perm == identity_perm(len(R)):
        omega, factors = omega_for_set(R, b_set), []
    else:
        esh = eps_sharp_map(A, eps, find_s_chamber(eps))
        odd = [int(esh.col(A.rank + b)[A.rank + eps(b)] < 0) for b in b_set]
        omega = omega_for_targets(R, b_set, [1] * len(b_set), parity_of=eps)
        mu = omega_for_targets(R, b_set, odd, parity_of=eps)
        if omega is None or mu is None:
            omega = mu = omega_for_set(R, b_set)
        factors = [esh, psi_map(A, mu)]
    for b in b_set:
        if omega(b) != -1:
            raise RealFormError("%s: the sign character is +1 at decomposition root %s"
                                % (R.spec.label, R.root_name(b)))
    sigma = _sign_datum(A, theta, factors + [QuarterTurn(A, b_set, 2), psi_map(A, omega)])
    for b in b_set:
        if b not in sigma.noncompact_set:
            raise RealFormError("%s: decomposition root %s came out compact in the "
                                "quasi-split lift" % (R.spec.label, R.root_name(b)))
    return sigma


def twist(sigma: AntiInvolution, eta: SignHom) -> AntiInvolution:
    """The datum (theta, f eta) for a character eta in Hom_theta.

    sigma's cocycle law was checked when it was made.  When eta is
    multiplicative, N(i, j) f(i+j) eta(i+j) = N(theta i, theta j) f(i) f(j)
    eta(i) eta(j) holds exactly when the law of f does, so the pairwise
    check is not repeated; what makes eta multiplicative, the additivity of
    its chamber's parity masks, is checked once per chamber instead.  The
    O(n) sign checks run on every twist."""
    if eta.system is not sigma.system or eta.chamber.system is not sigma.system:
        raise RealFormError("character and datum live on different systems")
    if not in_hom_theta(sigma.theta, eta):
        raise RealFormError("character is not compatible with the involution")
    bad = eta.chamber.parity_defect
    if bad is not None:
        raise RealFormError("the chamber's parity masks are not additive at %s and %s"
                            % tuple(map(sigma.system.root_name, bad)))
    out = AntiInvolution.__new__(AntiInvolution)
    out._setup(sigma.theta, {i: v * eta(i) for i, v in sigma.f.items()}, sigma.full)
    return out


# -- signature ---------------------------------------------------------------------------


class _SignatureFields(NamedTuple):
    n1: int
    n2: int
    n3: int
    n3k: int
    n3p: int
    ell: int
    ellk: int
    ellp: int
    dim_k: int
    dim_p: int


class SignatureCounts(_SignatureFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        assert self.n3 == self.n3k + self.n3p
        assert self.ell == self.ellk + self.ellp
        assert self.dim_k == self.ellk + self.n1 + 2 * self.n2 + 2 * self.n3k
        assert self.dim_p == self.ellp + self.n1 + 2 * self.n2 + 2 * self.n3p
        return self

    def to_json(self) -> dict:
        return self._asdict()


def signature(sigma: AntiInvolution) -> SignatureCounts:
    theta = sigma.theta
    R = theta.system
    rank = R.rank
    ch = R.canonical_chamber()
    # trace of theta on the span of the roots, in the simple-root basis
    tr = sum(ch.coords(theta(b))[k] for k, b in enumerate(ch.basis))
    assert (rank + tr) % 2 == 0
    ellp = (rank + tr) // 2
    ellk = rank - ellp
    n1 = len(theta.real_set) // 2
    n2 = len(theta.complex_set) // 4
    n3k = len(sigma.compact_set) // 2
    n3p = len(sigma.noncompact_set) // 2
    return SignatureCounts(
        n1=n1, n2=n2, n3=n3k + n3p, n3k=n3k, n3p=n3p,
        ell=rank, ellk=ellk, ellp=ellp,
        dim_k=ellk + n1 + 2 * n2 + 2 * n3k,
        dim_p=ellp + n1 + 2 * n2 + 2 * n3p,
    )


# -- Cayley transforms ---------------------------------------------------------------------


def cayley(sigma: AntiInvolution, beta: int, verify_dense: bool = True) -> AntiInvolution:
    """Move the Cartan subalgebra along a noncompact negated root.

    The involution becomes theta o s_beta; negated roots orthogonal to
    beta keep their sign when strongly orthogonal and flip it when the sum
    or difference with beta is a root.  With verify_dense the same data is
    recomputed on the dense oracle as c sigma c^-1 = c^2 sigma, c = exp(pi/4
    ad K_beta), as sigma negates K_beta (beta is noncompact)."""
    R = sigma.system
    if beta not in sigma.noncompact_set:
        raise RealFormError("transform root must be negated and noncompact")
    theta2 = Involution(R, perm_mul(sigma.theta.perm, R.reflection_perm(beta)))
    if not theta2.imaginary_set <= sigma.theta.imaginary_set:
        raise RealFormError("new negated root outside the old negated set")
    f2 = {i: sigma.f[i] if R.is_strongly_orthogonal(i, beta) else -sigma.f[i]
          for i in theta2.imaginary_set}
    if verify_dense and sigma.full:
        A = dense_algebra(sigma.constants)
        out = _sign_datum(A, theta2, [QuarterTurn(A, [beta], 2), sigma_dense(A, sigma)])
        if any(out.f[i] != f2[i] for i in theta2.imaginary_set):
            raise RealFormError("dense and combinatorial signs disagree")
        return out
    return AntiInvolution(theta2, f2, full=False)


def _max_long_sos_in(system: RootSystem, pool: list[int]) -> list[int]:
    """Inclusion-maximal strongly orthogonal subset of the pool with the
    largest number of long roots, longs ordered first."""
    out = first_max_clique([i for i in pool if system.is_long(i)],
                           system.is_strongly_orthogonal)
    for s in pool:
        if not system.is_long(s) and all(system.is_strongly_orthogonal(s, x) for x in out):
            out.append(s)
    return out


def reduce_noncompact(sigma: AntiInvolution, verify_dense: bool = True) -> AntiInvolution:
    """Cayley chain emptying the noncompact set; the result has the same
    form with a maximally vector Cartan subalgebra."""
    cur = sigma
    guard = 0
    while cur.noncompact_set:
        guard += 1
        if guard > len(sigma.system):
            raise RealFormError("transform chain did not terminate")
        pool = positive_representatives(cur.system, cur.noncompact_set)
        chain = _max_long_sos_in(cur.system, pool)
        if not chain:
            raise RealFormError("no transform root available")
        for b in chain:
            if b not in cur.noncompact_set:
                raise RealFormError("chain root turned compact prematurely")
            cur = cayley(cur, b, verify_dense=verify_dense)
    return cur


def is_quasi_split(sigma: AntiInvolution) -> bool:
    """Whether the form is quasi-split: its maximally vector Cartan
    subalgebra is maximally split, that is the transform chain leaves no
    negated root (Knapp, Lie Groups Beyond an Introduction, VI.7)."""
    return not reduce_noncompact(sigma, verify_dense=False).theta.imaginary_set


# -- isomorphism and identification ------------------------------------------------------


def isomorphic(s1: AntiInvolution, s2: AntiInvolution) -> bool:
    """Same form with conjugate Cartan data: the (compact, noncompact)
    pairs must be conjugate under the Weyl group."""
    if s1.system is not s2.system:
        raise RealFormError("data live on different systems")
    if len(s1.compact_set) != len(s2.compact_set) or \
            len(s1.noncompact_set) != len(s2.noncompact_set):
        return False
    if s1.theta.perm == s2.theta.perm:
        ch = find_s_chamber(s1.theta)
        bullets = [b for b in ch.basis if b in s1.theta.imaginary_set]
        if all(s1.f[b] == s2.f[b] for b in bullets):
            return True
    W = weyl_group(s1.system)
    got = W.transporter_pair((tuple(s1.compact_set), tuple(s1.noncompact_set)),
                             (frozenset(s2.compact_set), frozenset(s2.noncompact_set)))
    return got is not None


class RealFormName(NamedTuple):
    name: str
    aliases: tuple[str, ...]
    family: str
    rank: int
    dim_k: int
    is_compact: bool
    is_split: bool

    def __str__(self):
        return self.name


def _name_table(family: str, rank: int) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}

    def add(dim_k: int, name: str):
        out.setdefault(dim_k, []).append(name)

    if family == "A":
        n = rank + 1
        for p in range(0, n // 2 + 1):
            q = n - p
            name = "su(%d)" % n if p == 0 else "su(%d,%d)" % (p, q)
            add(p * p + q * q - 1, name)
        add(n * (n - 1) // 2, "sl(%d,R)" % n)
        if n % 2 == 0:
            m = n // 2
            add(m * (2 * m + 1), "su*(%d)" % n)
    elif family == "B":
        n = 2 * rank + 1
        for p in range(0, rank + 1):
            q = n - p
            name = "so(%d)" % n if p == 0 else "so(%d,%d)" % (p, q)
            add(p * (p - 1) // 2 + q * (q - 1) // 2, name)
    elif family == "C":
        for p in range(0, rank // 2 + 1):
            q = rank - p
            name = "sp(%d)" % rank if p == 0 else "sp(%d,%d)" % (p, q)
            add(p * (2 * p + 1) + q * (2 * q + 1), name)
        add(rank * rank, "sp(%d,R)" % (2 * rank))
    elif family == "D":
        n = 2 * rank
        for p in range(0, rank + 1):
            q = n - p
            name = "so(%d)" % n if p == 0 else "so(%d,%d)" % (p, q)
            add(p * (p - 1) // 2 + q * (q - 1) // 2, name)
        add(rank * rank, "so*(%d)" % n)
    elif family == "E6":
        for d, nm in [(78, "e6"), (36, "EI"), (38, "EII"), (46, "EIII"), (52, "EIV")]:
            add(d, nm)
    elif family == "E7":
        for d, nm in [(133, "e7"), (63, "EV"), (69, "EVI"), (79, "EVII")]:
            add(d, nm)
    elif family == "E8":
        for d, nm in [(248, "e8"), (120, "EVIII"), (136, "EIX")]:
            add(d, nm)
    elif family == "F4":
        for d, nm in [(52, "f4"), (24, "FI"), (36, "FII")]:
            add(d, nm)
    elif family == "G2":
        for d, nm in [(14, "g2"), (6, "G")]:
            add(d, nm)
    else:
        raise RealFormError("no name table for family %r" % family)
    return out


def identify(sigma: AntiInvolution) -> RealFormName:
    """Canonical name of the real form from its maximal-compact dimension."""
    R = sigma.system
    if R.factors is not None:
        raise RealFormError("identification handles irreducible systems")
    fam, rank = R.spec.family, R.rank
    sig = signature(sigma)
    table = _name_table(fam, rank)
    names = table.get(sig.dim_k)
    if not names:
        raise RealFormError("no real form of %s with dim k = %d"
                            % (R.spec.label, sig.dim_k))
    total = rank + len(R)
    return RealFormName(
        name=names[0], aliases=tuple(names[1:]), family=fam, rank=rank,
        dim_k=sig.dim_k,
        is_compact=(sig.dim_k == total),
        is_split=(sig.dim_k == len(R) // 2),  # dim k of the split form: the positive roots
    )


def twist_names(lift: AntiInvolution, chamber, label: str) -> dict[int, RealFormName]:
    """The name of each twist of lift by a character in Hom_theta on the
    chamber, by mask.  Only n3k in dim k = ellk + n1 + 2 n2 + 2 n3k depends on
    the mask, and it is counted; the Hom_theta rows and the laws of
    _verify_signs on f eta are checked once for the whole span, and the
    first twist of each dim k is made and identified."""
    theta, R, f, pm = lift.theta, lift.system, lift.f, chamber.parity_masks
    rows, _ = hom_theta_constraints(theta, chamber)
    # f eta keeps f(i) f(j) = 1 at j = theta(i), -i iff eta(i) eta(j) = f(i) f(j)
    laws = {(pm[i] ^ pm[j], f[i] != f[j]) for i in f for j in (theta(i), R.negation_map[i])
            if j in f and (pm[i] != pm[j] or f[i] != f[j])} | {(row, False) for row in rows}
    groups = Counter((pm[i], f[i]) for i in theta.imaginary_set)
    sig, named, out, nbits = signature(lift), {}, {}, len(chamber.basis)
    basis = f2_solution_space(rows, nbits)
    # each law is affine in the mask, so mask 0 and the basis vouch for the span
    for mask in [0, *basis]:
        if any(_parity(mask & m) != odd for m, odd in laws):
            raise RealFormError("%s, involution %s: mask %d is not in Hom_theta or breaks "
                                "the sign laws" % (R.spec.label, label, mask))
    for mask in project_span(basis, (1 << nbits) - 1):
        n3k = sum(c for (p, v), c in groups.items() if _parity(mask & p) == (v < 0)) // 2
        dim_k = sig.dim_k + 2 * (n3k - sig.n3k)
        if dim_k not in named:
            # naming by (dim k, real rank) would twist only dims with two names
            named[dim_k] = identify(twist(lift, SignHom(R, mask=mask, chamber=chamber)))
            if named[dim_k].dim_k != dim_k:
                raise RealFormError("%s, involution %s, mask %d: counted dim k %d, twisted %d"
                                    % (R.spec.label, label, mask, dim_k, named[dim_k].dim_k))
        out[mask] = named[dim_k]
    return out


def realform_rows(system: RootSystem) -> list[dict]:
    """The `realforms` rows: each form, with the involutions whose lift it twists."""
    thetas = [("id", identity_involution(system))] + table2_representatives(system)
    # the compact Cartan needs a row negating every root (-1 is outer in E6)
    if not any(len(t.imaginary_set) == len(system) for _, t in thetas):
        thetas.append(("-1", antipodal_involution(system)))
    rows: dict[str, dict] = {}
    for lab, theta in thetas:
        names = twist_names(quasi_split_lift(theta), find_s_chamber(theta), lab)
        for name in dict.fromkeys(names.values()):
            rows.setdefault(name.name, {
                "name": name.name, "aliases": list(name.aliases), "dim_k": name.dim_k,
                "compact": name.is_compact, "split": name.is_split,
                "cartan_involutions": []})["cartan_involutions"].append(lab)
    return [rows[k] for k in sorted(rows)]


# -- Cartan subalgebra classes --------------------------------------------------------------


def cartan_classes(sigma: AntiInvolution) -> list[Involution]:
    """Involution classes of the Cartan subalgebras of the form.

    Transform chains extend the decomposition set of the maximally vector
    datum by pairwise orthogonal fixed roots of the special part; the
    classes of the resulting involutions (modulo Weyl elements commuting
    with the special part) stand for the Cartan subalgebras.

    A set S is extended only by the first eligible root, in pool order, of
    each (component, length) orbit of Psi, the real roots of the special
    part eps orthogonal to S.  A reflection in Psi fixes S and commutes
    with eps (s_{eps g} = s_{-g} = s_g), and W(Psi) is transitive on the
    roots of one length in each irreducible component, so a skipped root
    gives an involution conjugate to that of the kept one.  A conjugacy
    search decides the candidates left, and builds the Weyl group only
    when the first one runs."""
    R = sigma.system
    reduced = reduce_noncompact(sigma, verify_dense=False)
    eps, base = decompose(reduced.theta)
    pm = R.pairing_matrix
    pool = [i for i in positive_representatives(R, eps.real_set)
            if all(pm[b][i] == 0 for b in base)]

    def theta_of(S) -> Involution:
        perm = eps.perm
        for b in S:
            perm = perm_mul(perm, R.reflection_perm(b))
        return Involution(R, perm)

    pairs = [(eps.perm, eps.perm)] if eps.perm != identity_perm(len(R)) else []

    def same_class(t1: Involution, t2: Involution) -> bool:
        if t1.perm == t2.perm:
            return True
        return weyl_group(R).conjugator(t1.perm, t2.perm, pairs=pairs) is not None

    reps: list[tuple[tuple[int, ...], Involution]] = [(tuple(base), theta_of(base))]
    frontier = [tuple(base)]
    while frontier:
        new_frontier = []
        for S in frontier:
            psi = [g for g in pool if g not in S and not any(pm[s][g] for s in S)]
            orbit = {g: (k, R._norms[g])
                     for k, (_, c) in enumerate(subsystem_components(R, psi)) for g in c}
            kept = set()
            for g in psi:
                if orbit[g] in kept:
                    continue
                kept.add(orbit[g])
                S2 = tuple(sorted(S + (g,)))
                t2 = theta_of(S2)
                if any(same_class(t2, t) for _, t in reps):
                    continue
                reps.append((S2, t2))
                new_frontier.append(S2)
        frontier = new_frontier
    return [t for _, t in sorted(reps, key=lambda st: (len(st[0]), st[0]))]


def sigma_from_chamber_signs(theta: Involution, chamber,
                             signs: dict[int, int]) -> AntiInvolution:
    """Sign datum from a sign at every root of a chamber basis, extended
    through the cocycle recurrence by height and verified.  Raises when a
    basis root has no sign or the signs break a law."""
    return _datum_from_basis_signs(theta, chamber, signs)


# -- compact Cartan enumeration -----------------------------------------------------------


def sigma_from_basis_signs(system: RootSystem, signs: dict[int, int]) -> AntiInvolution:
    """Sign datum over the all-negating involution with the given signs on
    the canonical simple roots.  As N(-a, -b) = N(a, b), the height
    recursion makes it the character of those signs."""
    return _datum_from_basis_signs(antipodal_involution(system), system.canonical_chamber(),
                                   signs)


def compact_cartan_enumeration(system: RootSystem, dedupe: bool = True) -> list[AntiInvolution]:
    """Sign data over the all-negating involution, one per form when
    dedupe is set; each entry may be queried with is_quasi_split."""
    if system.factors is not None:
        raise RealFormError("enumeration handles irreducible systems")
    out: list[AntiInvolution] = []
    for bits in itertools.product((1, -1), repeat=system.rank):
        sigma = sigma_from_basis_signs(system, dict(zip(system.canonical_basis, bits)))
        if dedupe and any(isomorphic(sigma, other) for other in out):
            continue
        out.append(sigma)
    return out


# -- parity constraints (mod-2 description of the twist group) ------------------------------


def _theta_differences(theta: Involution, chamber) -> list[tuple[int, ...]]:
    """Coordinates of b - theta(b) over the chamber basis, for the simple
    roots b where one of them is odd (never a negated or fixed root)."""
    out = []
    for b in chamber.basis:
        row = tuple(x - y for x, y in zip(chamber.coords(b), chamber.coords(theta(b))))
        if any(c & 1 for c in row):
            out.append(row)
    return out


def hom_theta_constraints(theta: Involution, chamber) -> tuple[tuple[int, ...], int]:
    """Mod-2 description of the compatible sign characters on a chamber.

    Returns (rows, bullet_mask): each row is a bitmask over the chamber
    basis positions encoding one parity condition sum(c_j) = 0; the mask
    marks the positions of the negated simple roots.  Kept on theta per
    chamber, as every twist over theta asks again."""
    got = theta._hom_theta_rows.get(chamber)
    if got is None:
        rows = tuple(sum((c & 1) << m for m, c in enumerate(row))
                     for row in _theta_differences(theta, chamber))
        bullets = sum(1 << k for k, b in enumerate(chamber.basis) if b in theta.imaginary_set)
        got = theta._hom_theta_rows[chamber] = (rows, bullets)
    return got


def f2_solution_space(rows: list[int], nbits: int) -> list[int]:
    """Basis of the mod-2 solution space of the given parity rows."""
    reduced: list[int] = []
    for row in rows:
        r = row
        for pr in reduced:
            if r >> (pr.bit_length() - 1) & 1:
                r ^= pr
        if r:
            p = r.bit_length() - 1
            reduced = [br ^ r if br >> p & 1 else br for br in reduced]
            reduced.append(r)
    pivots = {pr.bit_length() - 1: pr for pr in reduced}
    basis = []
    for free in range(nbits):
        if free in pivots:
            continue
        v = 1 << free
        for p, pr in pivots.items():
            if _parity(v & (pr ^ (1 << p))):
                v ^= 1 << p
        basis.append(v)
    return basis


def _parity(x: int) -> int:
    return x.bit_count() & 1


def project_span(vectors: list[int], mask: int) -> set[int]:
    """All elements of the span of the bit-vectors, restricted to mask."""
    out = {0}
    for v in vectors:
        vm = v & mask
        out |= {x ^ vm for x in out}
    return out
