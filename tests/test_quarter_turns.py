"""Quarter turns and the sign data read through them.

`tests/golden/quasi_split_lifts.json` holds, for the identity, the
antipodal involution and every catalog row of the systems in GOLDEN_SPECS,
the compact and noncompact sets and the signs of `quasi_split_lift` and of
`reduce_noncompact` of that lift (which checks every Cayley step on the
dense oracle).  It was recorded while both went through whole-algebra
quarter-turn maps built by degree-6 interpolation; rerun this module as a
script to rewrite it.  That interpolation is kept below as the reference
for the closed-form turns, map for map.
"""

import json
from pathlib import Path

import pytest

from cartanclass import chevalley as cv
from cartanclass import cli
from cartanclass import involution as iv
from cartanclass import realform as rf
from cartanclass import rootsys as rs

GOLDEN = Path(__file__).parent / "golden" / "quasi_split_lifts.json"

GOLDEN_SPECS = ([rs.RootSystemSpec("A", r) for r in range(1, 7)]
                + [rs.RootSystemSpec("B", r) for r in range(2, 7)]
                + [rs.RootSystemSpec("C", r) for r in range(3, 7)]
                + [rs.RootSystemSpec("D", r) for r in (4, 5, 6, 8)]
                + [rs.RootSystemSpec(f) for f in ("G2", "F4", "E6", "E7", "E8")]
                + [rs.RootSystemSpec("E6", realization="prime")])


def _datum(sigma):
    cb = sigma.system.canonical_basis
    return {"compact": sorted(sigma.compact_set),
            "noncompact": sorted(sigma.noncompact_set),
            "f_on_simple": [sigma.f[b] for b in cb],
            "f": "".join("+" if sigma.f[i] > 0 else "-"
                         for i in range(len(sigma.system.roots)))}


def _lift_rows(R):
    rows = {}
    thetas = ([("id", iv.identity_involution(R)), ("-1", iv.antipodal_involution(R))]
              + iv.table2_representatives(R))
    for lab, theta in thetas:
        try:
            lift = rf.quasi_split_lift(theta)
        except rf.RealFormError as exc:
            rows[lab] = {"error": str(exc)}
            continue
        rows[lab] = {"lift": _datum(lift),
                     "reduced": _datum(rf.reduce_noncompact(lift))}
    return rows


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.label)
def test_quasi_split_lifts_match_golden(spec):
    want = json.loads(GOLDEN.read_text())[spec.label]
    assert _lift_rows(rs.build(spec)) == want


# -- the reference: a whole-algebra turn by degree-6 interpolation -------------

# beta-strings of length 1 to 4 (G2, B3, F4) and a rank-6 algebra (E6)
TURN_SPECS = [rs.RootSystemSpec(f, r) for f, r in
              (("G2", None), ("B", 3), ("F4", None), ("E6", None))]


def _qrt2_solve(rows, target):
    n = len(rows)
    m = [list(r) + [t] for r, t in zip(rows, target)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c])
        m[c], m[piv] = m[piv], m[c]
        inv = m[c][c].inverse()
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


def _interp_coeffs(sign):
    """p of degree 6 with p(M) = exp(sign*pi/4*M) whenever
    M(M^2+1)(M^2+4)(M^2+9) = 0: match cos and sin at k*pi/4, k = 0..3."""
    s, one, zero = cv.SQRT2_HALF, cv.Qrt2(1), cv.Qrt2(0)
    rows = [[one, cv.Qrt2(-(k * k)), cv.Qrt2(k ** 4), cv.Qrt2(-(k ** 6))] for k in range(4)]
    even = _qrt2_solve(rows, [one, s, zero, -s])
    rows = [[cv.Qrt2(k), cv.Qrt2(-(k ** 3)), cv.Qrt2(k ** 5)] for k in range(1, 4)]
    odd = _qrt2_solve(rows, [sign * v for v in (s, one, s)])
    return [even[0], odd[0], even[1], odd[1], even[2], odd[2], even[3]]


def _reference_turn(A, beta, sign):
    """exp(sign*pi/4*ad K_beta) as the interpolation polynomial in ad K."""
    k_elem = A.k_elem(beta)
    coeffs = _interp_coeffs(sign)
    cols = {}
    for i in range(A.dim):
        w = {i: cv.Qrt2(1)}
        acc = {}
        for j, a in enumerate(coeffs):
            if j:
                w = {k: cv.Qrt2.of(c) for k, c in A.bracket(k_elem, w).items()}
            for k, c in w.items():
                acc[k] = acc.get(k, cv.Qrt2(0)) + a * c
        cols[i] = {k: c for k, c in acc.items() if c}
    return cv.LinearMap(A, cols)


@pytest.mark.parametrize("spec", TURN_SPECS, ids=lambda s: s.label)
def test_quarter_turn_matches_interpolation(spec):
    """Every root of G2, B3 and F4 (beta-strings of length 1 to 4) and one
    root of E6, both signs."""
    R = rs.build(spec)
    A = cv.dense_algebra(cv.structure_constants(R), verify="none")
    roots = R.canonical_basis[:1] if spec.family == "E6" else range(len(R.roots))
    for beta in roots:
        for sign in (1, -1):
            got = cv.exp_quarter_pi_adk(A, [beta], sign)
            assert got.equals(_reference_turn(A, beta, sign)), (spec.label, beta, sign)


def test_quarter_turn_of_a_set_is_the_product():
    R = rs.build("F4")
    A = cv.dense_algebra(cv.structure_constants(R), verify="none")
    theta = iv.table2_representatives(R)[-1][1]
    _, b_set = iv.decompose(theta)
    assert len(b_set) > 1
    for sign in (1, -1):
        want = cv.LinearMap.identity(A)
        for beta in b_set:
            want = _reference_turn(A, beta, sign).compose(want)
        assert cv.exp_quarter_pi_adk(A, b_set, sign).equals(want)


# -- the half turn: c M c^-1 = c^2 M when M negates every K_beta ----------------


@pytest.mark.parametrize("spec", TURN_SPECS, ids=lambda s: s.label)
def test_half_turn_is_the_quarter_turn_squared(spec):
    """Every root of G2, B3 and F4 and one root of E6: the rational half
    turn equals the Q(sqrt2) quarter turn applied twice, and sends each
    root vector to +-1 times a single root vector."""
    R = rs.build(spec)
    A = cv.dense_algebra(cv.structure_constants(R), verify="none")
    roots = R.canonical_basis[:1] if spec.family == "E6" else range(len(R.roots))
    for beta in roots:
        half = cv.QuarterTurn(A, [beta], 2)
        cols = {i: half.apply({i: 1}) for i in range(A.dim)}
        quarter = cv.exp_quarter_pi_adk(A, [beta])
        assert cv.LinearMap(A, cols).equals(quarter.compose(quarter)), (spec.label, beta)
        for i in range(A.rank, A.dim):
            [(j, c)] = cols[i].items()
            assert j >= A.rank and c in (1, -1), (spec.label, beta, i)


def test_turn_must_be_a_quarter_or_a_half():
    R = rs.build("G2")
    A = cv.dense_algebra(cv.structure_constants(R), verify="none")
    with pytest.raises(cv.ChevalleyError, match="not 3$"):
        cv.QuarterTurn(A, [R.canonical_basis[0]], 3)


def test_turn_names_the_pair_that_is_not_strongly_orthogonal():
    R = rs.build("B", 2)
    A = cv.dense_algebra(cv.structure_constants(R), verify="none")
    a, b = R.root_index((1, 0)), R.root_index((0, 1))
    with pytest.raises(cv.ChevalleyError, match=r"^set is not strongly orthogonal: B2 root %d "
                       r"\(1, 0\) and B2 root %d \(0, 1\)$" % (a, b)):
        cv.QuarterTurn(A, [a, b], 2)


def test_lift_checks_the_character_negates_every_k(monkeypatch):
    R = rs.build("G2")
    theta = iv.antipodal_involution(R)
    assert iv.decompose(theta)[1]
    monkeypatch.setattr(rf, "omega_for_set", lambda system, b_set: rf.SignHom(system, mask=0))
    with pytest.raises(rf.RealFormError, match="sign character is \\+1 at decomposition root"):
        rf.quasi_split_lift(theta)


# images of the E6 simple roots under catalog row w3
E6_W3_IMAGES = json.dumps([["1/2", "1/2"] + ["-1/2"] * 6,
                           [-1, -1, 0, 0, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0, 0, 0],
                           [0, 1, 0, 1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0, 0, 0],
                           [0, 0, -1, 0, 1, 0, 0, 0]])


@pytest.mark.parametrize("argv", [["realforms", "--type", "E6"],
                                  ["cayley", "--type", "F4", "--label", "7"],
                                  ["sigma", "--type", "F4", "--label", "7", "--restricted"],
                                  ["cartans", "--type", "E6", "--images", E6_W3_IMAGES]],
                         ids=lambda a: a[0])
def test_sign_data_paths_make_no_qrt2(argv, monkeypatch, capsys):
    """The lifts and Cayley checks run on rational half turns alone."""
    def refuse(self, a=0, b=0):
        raise AssertionError("a Q(sqrt2) number was made")

    monkeypatch.setattr(cv.Qrt2, "__init__", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


if __name__ == "__main__":
    out = {spec.label: _lift_rows(rs.build(spec)) for spec in GOLDEN_SPECS}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
