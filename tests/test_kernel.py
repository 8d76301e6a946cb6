"""The integer root-index kernel against its root-vector definitions.

Every answer of the kernel (sums, pairings, reflections, strong
orthogonality, root strings) is recomputed here from the coordinates of
the roots, with a root lookup built by the test itself.  The coordinates
are doubled first, which clears every denominator of the realizations, so
that the check runs in exact integers at a speed that allows every pair
of roots up to rank 8.
"""

import pytest

from cartanclass import involution as iv, realform as rf, rootsys as rs

SPECS = (
    [rs.RootSystemSpec("A", r) for r in range(1, 9)]
    + [rs.RootSystemSpec("B", r) for r in range(2, 9)]
    + [rs.RootSystemSpec("C", r) for r in range(3, 9)]
    + [rs.RootSystemSpec("D", r) for r in range(4, 9)]
    + [rs.RootSystemSpec(f) for f in ("E6", "E7", "E8", "F4", "G2")]
    + [rs.RootSystemSpec(f, realization="prime") for f in ("E6", "E7")]
    + [rs.RootSystemSpec(factors=(rs.RootSystemSpec("B", 2), rs.RootSystemSpec("G2"))),
       rs.RootSystemSpec(factors=())]
)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _doubled(vector):
    out = tuple(2 * x for x in vector)
    assert all(x.denominator == 1 for x in out)
    return tuple(int(x) for x in out)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label or "empty")
def test_kernel_matches_vector_definitions(spec):
    R = rs.build(spec)
    roots = [_doubled(r) for r in R.roots]
    where = {r: i for i, r in enumerate(roots)}
    assert len(R.sum_table) == len(roots)
    for i, a in enumerate(roots):
        row = R.sum_table[i]
        refl = R.reflection_perm(i)
        for j, b in enumerate(roots):
            assert row[j] == where.get(_add(a, b), -1)
            pairing, rem = divmod(2 * _dot(b, a), _dot(a, a))
            assert rem == 0 and R.pairing(j, i) == pairing
            assert refl[j] == where[_sub(b, tuple(pairing * x for x in a))]
            if j == i or b == tuple(-x for x in a):
                assert not R.is_strongly_orthogonal(i, j)
                continue
            assert R.is_strongly_orthogonal(i, j) == (
                _add(a, b) not in where and _sub(a, b) not in where)
            p, v = 0, _add(b, a)
            while v in where:
                p, v = p + 1, _add(v, a)
            q, v = 0, _sub(b, a)
            while v in where:
                q, v = q + 1, _sub(v, a)
            assert R.root_string(j, i) == (p, q)


@pytest.mark.parametrize("family,realization", [("F4", "standard"), ("E6", "standard"),
                                                ("E6", "prime")])
def test_signature_trace_matches_matrix(family, realization):
    R = rs.build(family, realization=realization)
    rows = [("id", iv.identity_involution(R)), ("-1", iv.antipodal_involution(R))]
    for label, theta in rows + iv.table2_representatives(R):
        sigma = rf.AntiInvolution(theta, dict.fromkeys(theta.imaginary_set, 1), full=False)
        trace = sum(theta.matrix[k][k] for k in range(R.dim)) - (R.dim - R.rank)
        sig = rf.signature(sigma)
        assert 2 * sig.ellp == R.rank + trace, label
        assert 2 * sig.ellk == R.rank - trace, label
