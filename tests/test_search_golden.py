"""The group searches, pinned.

`tests/golden/searches.json` holds seeded `transporter_set`,
`transporter_pair` and `conjugator` calls on B3, D4, F4 and E6, in the Weyl
group and in the full automorphism group, with the element each returned
(as images of the canonical simple roots, which fix it) or None.  The
searches return the first element found in a fixed order, so a change to
their pruning must not change any answer.  Involutions are given as a
catalog label conjugated by a word in the group's generators.  Rerun this
module as a script to rewrite the file.
"""

import functools
import json
import random
from pathlib import Path

import pytest

from cartanclass import involution as iv, rootsys as rs, weylgroup as wg

GOLDEN = Path(__file__).parent / "golden" / "searches.json"
SYSTEMS = {"B3": ("B", 3), "D4": ("D", 4), "F4": ("F4",), "E6": ("E6",)}


def _group(R, kind):
    return wg.weyl_group(R) if kind == "W" else wg.full_aut_group(R)


def _rows(R):
    return dict([("id", iv.identity_involution(R))] + iv.table2_representatives(R))


def _element(G, word):
    return functools.reduce(wg.perm_mul, (G.generators[k] for k in word), wg.identity_perm(G.n))


def _involution(G, rows, spec):
    label, word = spec
    g = _element(G, word)
    return wg.perm_mul(wg.perm_mul(g, rows[label].perm), wg.perm_inv(g))


def _call(G, rows, case):
    if case["call"] == "transporter_set":
        return G.transporter_set(case["x"], case["y"])
    if case["call"] == "transporter_pair":
        return G.transporter_pair(case["x"], case["y"])
    pairs = [(_involution(G, rows, a), _involution(G, rows, b)) for a, b in case["pairs"]]
    return G.conjugator(_involution(G, rows, case["theta"]),
                        _involution(G, rows, case["theta2"]), pairs=pairs)


def _answer(R, g):
    return None if g is None else [g[b] for b in R.canonical_basis]


def _cases(label, kind):
    """Six set and six pair transporter calls and three conjugator calls;
    about half have an answer.  Pair blocks share a point in every other
    call."""
    R = rs.build(*SYSTEMS[label])
    G, rows = _group(R, kind), _rows(R)
    rng = random.Random("searches %s %s" % (label, kind))
    n, labels = len(R), sorted(rows)

    def word():
        return [rng.randrange(len(G.generators)) for _ in range(rng.randint(0, 10))]

    out = []
    for k in range(6):
        g = _element(G, word())
        x = rng.sample(range(n), rng.randint(1, 4))
        y = [g[i] for i in x] if k % 2 else rng.sample(range(n), len(x))
        out.append({"call": "transporter_set", "x": x, "y": y})
    for k in range(6):
        g = _element(G, word())
        x1 = rng.sample(range(n), rng.randint(1, 3))
        x2 = rng.sample(range(n), rng.randint(1, 2)) + (x1[:1] if k % 2 else [])
        x2 = list(dict.fromkeys(x2))
        if k % 3:
            y1, y2 = [g[i] for i in x1], [g[i] for i in x2]
        else:
            y1, y2 = rng.sample(range(n), len(x1)), rng.sample(range(n), len(x2))
        out.append({"call": "transporter_pair", "x": [x1, x2], "y": [y1, y2]})
    for k in range(3):
        a, w1, w2 = rng.choice(labels), word(), word()
        b = rng.choice(labels) if k == 2 else a
        pairs = []
        if k:
            # g2 g1^-1 takes (a, s) by w1 to (a, s) by w2; k = 2 moves s at random
            s = rng.choice(labels)
            pairs = [[[s, w1], [s, w2 if k == 1 else word()]]]
        out.append({"call": "conjugator", "theta": [a, w1], "theta2": [b, w2], "pairs": pairs})
    for case in out:
        case["want"] = _answer(R, _call(G, rows, case))
    return out


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", ["%s %s" % (s, k) for s in SYSTEMS for k in "WA"])
def test_search_answers_match_golden(key):
    label, kind = key.split()
    R = rs.build(*SYSTEMS[label])
    G, rows = _group(R, kind), _rows(R)
    cases = _golden()[key]
    assert len(cases) == 15
    for case in cases:
        assert _answer(R, _call(G, rows, case)) == case["want"], case


def test_golden_searches_have_answers_and_shared_points():
    cases = [c for v in _golden().values() for c in v]
    assert len(cases) == 120
    for call in ("transporter_set", "transporter_pair", "conjugator"):
        wants = [c["want"] for c in cases if c["call"] == call]
        assert any(w is None for w in wants) and any(w is not None for w in wants), call
    assert any(set(c["x"][0]) & set(c["x"][1]) for c in cases if c["call"] == "transporter_pair")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"%s %s" % (s, k): _cases(s, k) for s in SYSTEMS for k in "WA"},
                                 indent=None, separators=(",", ":")) + "\n")
