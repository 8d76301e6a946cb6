"""The benchmark's workloads: seeded query lists and their output checks.

A query is one ``cartanclass`` command line, run in a fresh process.  The
seed picks the Weyl word behind each ``--images`` query and the order of
the queries in every pass; the program only sees the generated argv.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# -- independent references -----------------------------------------------------

# Real forms per family as (accepted names, dim k), from the standard
# classification (Knapp, Lie Groups Beyond an Introduction, App. C).  A form
# with an isomorphic second name accepts either, e.g. so(2,6) = so*(8).
REALFORMS = {
    "G2": [({"G", "G2(2)"}, 6), ({"g2"}, 14)],
    "D4": [({"so(8)"}, 28), ({"so(7,1)", "so(1,7)"}, 21),
           ({"so(6,2)", "so(2,6)", "so*(8)"}, 16),
           ({"so(5,3)", "so(3,5)"}, 13), ({"so(4,4)"}, 12)],
    "A5": [({"su(6)"}, 35), ({"su(5,1)", "su(1,5)"}, 25),
           ({"su(4,2)", "su(2,4)"}, 19), ({"su(3,3)"}, 17),
           ({"sl(6,R)"}, 15), ({"su*(6)", "sl(3,H)"}, 21)],
    "E6": [({"EI"}, 36), ({"EII"}, 38), ({"EIII"}, 46), ({"EIV"}, 52),
           ({"e6"}, 78)],
}

# Simple roots of E6 in the program's standard realization and the images of
# those roots under catalog row w3, both as printed by the seed commit.
E6_SIMPLE = (
    ("-1/2",) * 8,
    ("1", "1", "0", "0", "0", "0", "0", "0"),
    ("-1", "1", "0", "0", "0", "0", "0", "0"),
    ("0", "-1", "1", "0", "0", "0", "0", "0"),
    ("0", "0", "-1", "1", "0", "0", "0", "0"),
    ("0", "0", "0", "-1", "1", "0", "0", "0"),
)
E6_W3_IMAGES = (
    ("1/2", "1/2") + ("-1/2",) * 6,
    ("-1", "-1", "0", "0", "0", "0", "0", "0"),
    ("1", "-1", "0", "0", "0", "0", "0", "0"),
    ("0", "1", "0", "1", "0", "0", "0", "0"),
    ("0", "0", "1", "-1", "0", "0", "0", "0"),
    ("0", "0", "-1", "0", "1", "0", "0", "0"),
)
WORD_LENGTH = 12

# sha256 of stdout recorded at the seed commit, per query name.
DIGESTS = {
    "cartans-E6-w3":
        "7456ddf86e1e7804b6f5d1e25614d432e3d98d51786449f6ea7830399a1be376",
    "cayley-G2-3":
        "657458f356bb84643366dc6d148633716801ef9d650d9bc70785b81bf4ea4ec4",
    "sigma-F4-7-restricted":
        "88015a54c528a4a0178acb7bf90e4b1ab61f9377eff05f85c7486fafb305b5c6",
    "verify-chevalley-F4":
        "08a4374f5f0df7bcd542fd6a1f4b1535fb508c2846c31db1f592f7278fb8fb3d",
    "involutions-E8":
        "111b755fcc9f476e595330122b7244791cf2f024a903db33f8dd9ce9ec32be62",
    "sos-E7":
        "7057bfb8be0127f974543f98eeb77e315985e970c56be5c066dc0d398bdd1464",
    "sos-E8-4":
        "536133b7bf4cf69480a63d588d9bc958c66dbae21b001d27a676148587c61861",
    "diagram-E8-5":
        "86cbea18155338db2ddcd5e0310416586b589065c38fc9fdd9191b130b39ddcd",
    "verify-table2-E7":
        "f017320344ef133cedffbfe31bf7e1df43967c8b764fd0da0d47cf85dd41677a",
    "verify-sos-table":
        "3876386b21b4bcbb6f0dcb1d88f524edb2395d67b60928432ab03aca89ec148c",
    "verify-dual-vectors":
        "c6a4533187288430c8fa9666d18ce52394d7563a08f5927e57f967b7e6d3306f",
}

# Wrong outputs the seed commit is known to give, by query name, as the
# sha256 of that output.  The query still counts as failed; a different
# wrong output is a regression.  realforms --type E6 lists only EI and EIV:
# -1 is an outer automorphism of E6 and no catalog row reaches the compact
# Cartan of e6, EII and EIII.
KNOWN_DEFECTS = {
    "realforms-E6":
        "774d4c0e83b6add6e1c5ea0f2b57fdf344e90c64547e9ba6f3f1084b13bb1716",
}

ANTIINVOLUTION_SCHEMA = "schemas/antiinvolution.schema.json"


# -- exact Weyl conjugation ---------------------------------------------------------


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _reflect(v, a):
    c = 2 * _dot(v, a) / _dot(a, a)
    return tuple(x - c * y for x, y in zip(v, a))


def conjugate_images(simple, images, word) -> list[tuple[Fraction, ...]]:
    """Images of the simple roots under w theta w^-1, where theta sends
    simple[k] to images[k] and w = s_word[0] ... s_word[-1]."""
    simple = [tuple(map(Fraction, v)) for v in simple]
    images = [tuple(map(Fraction, v)) for v in images]
    n = len(simple)
    # cartan[k][j] = <alpha_k, alpha_j^vee>
    cartan = [[2 * _dot(simple[k], simple[j]) / _dot(simple[j], simple[j])
               for j in range(n)] for k in range(n)]
    out = []
    for i in range(n):
        coords = [Fraction(int(k == i)) for k in range(n)]  # of w^-1 alpha_i
        for j in word:
            coords[j] -= sum(coords[k] * cartan[k][j] for k in range(n))
        v = tuple(sum((c * img[d] for c, img in zip(coords, images)), Fraction(0))
                  for d in range(len(images[0])))
        for j in reversed(word):
            v = _reflect(v, simple[j])
        out.append(v)
    return out


def weyl_word(rng: random.Random, rank: int, length: int = WORD_LENGTH) -> list[int]:
    word: list[int] = []
    while len(word) < length:
        j = rng.randrange(rank)
        if not word or word[-1] != j:
            word.append(j)
    return word


def images_arg(vectors) -> str:
    return json.dumps([[str(x) for x in v] for v in vectors], separators=(",", ":"))


# -- queries ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    name: str
    argv: tuple[str, ...]
    check: str          # "digest" or "realforms:<family>"
    expect: str = ""    # DIGESTS key, when not the query's own name
    schema: str = ""    # JSON schema the stdout must validate against


def _q(name, argv, check="digest", schema=""):
    return Query(name, tuple(argv.split()), check, schema=schema)


def _classify(rng: random.Random) -> list[Query]:
    word = weyl_word(rng, len(E6_SIMPLE))
    images = images_arg(conjugate_images(E6_SIMPLE, E6_W3_IMAGES, word))
    return [
        _q("realforms-G2", "realforms --type G2", "realforms:G2"),
        _q("realforms-D4", "realforms --type D --rank 4", "realforms:D4"),
        _q("realforms-A5", "realforms --type A --rank 5", "realforms:A5"),
        _q("realforms-E6", "realforms --type E6", "realforms:E6"),
        Query("cartans-E6-conj", ("cartans", "--type", "E6", "--images", images),
              "digest", "cartans-E6-w3"),
        # Small sign-data transforms: a Cayley chain (its JSON is schema
        # checked), a restricted diagram and the full Jacobi check.
        _q("cayley-G2-3", "cayley --type G2 --label 3", schema=ANTIINVOLUTION_SCHEMA),
        _q("sigma-F4-7-restricted", "sigma --type F4 --label 7 --restricted --format ascii"),
        _q("verify-chevalley-F4", "verify chevalley --type F4"),
    ]


def _catalog(rng: random.Random) -> list[Query]:
    return [
        _q("involutions-E8", "involutions --type E8"),
        _q("sos-E7", "sos --type E7"),
        _q("sos-E8-4", "sos --type E8 --size 4"),
        _q("diagram-E8-5", "diagram --type E8 --label 5 --format ascii"),
        _q("verify-table2-E7", "verify table2 --type E7"),
        _q("verify-sos-table", "verify sos-table"),
        _q("verify-dual-vectors", "verify dual-vectors"),
    ]


WORKLOADS = {"classify": _classify, "catalog": _catalog}

# Root systems each workload builds, as rootsys.build arguments; the timed
# set-up builds exactly these.  A traced run (run.py --trace 1) records what
# the queries build and fails when they build a system missing here.
_DUAL_VECTOR_SYSTEMS = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
                        + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)]
                        + [("E6", None), ("E7", None), ("E8", None), ("F4", None),
                           ("G2", None)])
SYSTEMS = {
    "classify": [("G2", None), ("D", 4), ("A", 5), ("E6", None), ("F4", None)],
    "catalog": sorted(set(_DUAL_VECTOR_SYSTEMS) | {("E7", None), ("E8", None)},
                      key=str),
}


class Plan:
    """The seeded inputs of one run: the queries and their order per pass."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.queries = WORKLOADS[workload](self.rng)

    def next_pass(self) -> list[Query]:
        return self.rng.sample(self.queries, len(self.queries))


# -- checks ------------------------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_REALFORM_LINE = re.compile(r"^(\S+)\s+dim_k=(\d+)\s+cartans=\S*$")


def check_realforms(family: str, stdout: str) -> str:
    """'' when the listed forms are exactly the reference forms, else why not."""
    remaining = list(REALFORMS[family])
    for line in stdout.splitlines():
        m = _REALFORM_LINE.match(line)
        if m is None:
            return "unparsable line %r" % line
        name, dim_k = m.group(1), int(m.group(2))
        hit = next((r for r in remaining if name in r[0] and dim_k == r[1]), None)
        if hit is None:
            return "unexpected form %s dim_k=%d" % (name, dim_k)
        remaining.remove(hit)
    if remaining:
        return "missing %s" % ", ".join(sorted(min(names) for names, _ in remaining))
    return ""


@functools.lru_cache(maxsize=None)
def _validator(root: Path, schema_path: str):
    import jsonschema
    from referencing import Registry, Resource
    schemas = {p.name: json.loads(p.read_text())
               for p in (root / schema_path).parent.glob("*.json")}
    registry = Registry().with_resources(
        (name, Resource.from_contents(body)) for name, body in schemas.items())
    return jsonschema.Draft202012Validator(schemas[Path(schema_path).name],
                                           registry=registry)


def check(query: Query, code: int, stdout: bytes, root: Path) -> tuple[str, bool]:
    """(reason, known): reason is '' when the output is right; known is True
    when a wrong output is exactly the recorded seed defect."""
    if code != 0:
        return "exit code %d" % code, False
    if query.check.startswith("realforms:"):
        reason = check_realforms(query.check.split(":", 1)[1], stdout.decode())
    elif digest(stdout) != DIGESTS[query.expect or query.name]:
        reason = "stdout differs from the seed output of %s" % (query.expect or query.name)
    else:
        reason = ""
    if not reason and query.schema:
        errors = list(_validator(root, query.schema).iter_errors(json.loads(stdout)))
        if errors:
            reason = "schema: %s" % errors[0].message
    known = bool(reason) and KNOWN_DEFECTS.get(query.name) == digest(stdout)
    return reason, known
