"""The pinned CLI outputs, one row per command: every suite's check count
and the outputs the paper's claims are pinned by, up to A7, B6 and I2(2555).

    PYTHONPATH=src python -S tests/pins.py

runs every row through `cli.main` in one process and exits 0 if each holds.
A row is (id, argv, exit status, reader, want).  The command must exit with
that status, and reader(document) must equal want.  On exit 0 the document
is stdout parsed as JSON and stderr must be empty; otherwise stdout must be
empty and the document is stderr, exactly one `error: ` line.

Tier-1 runs ROWS, everything up to D6, in a `python -S` child
(tests/test_pins.py); CI runs ROWS + LARGE_ROWS against the installed
package.  Adding a pin is adding a row.  Only the stdlib and `coxlehmer.cli`
are imported, so a third-party import on any pinned path fails here.
"""

import contextlib
import hashlib
import io
import json
import sys
import traceback

from coxlehmer import cli


def q_product(*exponents):
    """The coefficients of prod [e + 1]_q over the exponents: the Poincare
    polynomial of a group with these exponents."""
    p = [1]
    for e in exponents:
        p = [sum(p[max(0, i - e):i + 1]) for i in range(len(p) + e)]
    return p


def checks(doc):
    return doc["pass"], doc["instances"]


def code_and_length(doc):
    return doc["code"], doc["length"]


def digest(doc):
    """sha256 of the document re-serialized with sorted keys, as `code
    --dump-table` prints it."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


ROWS = [
    # the three routes agree on all 578 lower intervals of A1-A4, B3, D4, H3 and
    # I2(3..8), plus the worked 3412 example; the complex route reads the per-box
    # memo of shelling steps, each box point's step walked once per process
    ("verify-routes", ["verify", "routes", "--json"], 0, checks, (True, 1161)),
    ("hpoly-d5-agree", ["hpoly", "--type", "D", "--rank", "5", "--perm=1,2,-4,3,-5",
                        "--route", "all", "--json"], 0, lambda d: d["agree"], True),
    # the per-point lemma, l(G(x)) = x and |G(x)| = |x|, one check at each of the
    # 3,678 points of the 19 code and suite boxes, plus f/h on the 128 seed-2024 ideals
    ("verify-shellings", ["verify", "shellings", "--json"], 0, checks, (True, 3806)),
    # each facet is the join of one chain facet per class and each chain's top
    # vertex sheds, so one check per point certifies every ideal holding it: one
    # check per ideal of the 30 boxes up to volume 16 (805) plus one per point of
    # the 17 code boxes (3,634), which hold every lower interval of A1-A5, B2-B4,
    # D4-D5, H3 and I2(3..10)
    ("verify-vd", ["verify", "vd", "--json"], 0, checks, (True, 4439)),
    # an ideal of a 0/1 box is flag iff no minimal box point outside it has rank
    # above two, read off the box table by shifts; the clique search on its complex
    # must agree on every nonempty ideal of (2,2,2) (19) and (2,2,2,2) (167)
    ("verify-flag", ["verify", "flag", "--json"], 0, checks, (True, 186)),
    # enumerates H3 and I2(3)..I2(10) as permutations of their roots; each group's
    # exponents come from one peel of q-integers off its Poincare polynomial, two
    # checks for each of the 19 systems
    ("verify-exponents", ["verify", "exponents", "--json"], 0, checks, (True, 38)),
    # every shipped code and its dual on the 19 code systems, whose bounds must be
    # the exponents the same peel reads, plus the dihedral code counts at m = 3, 4, 5
    ("verify-codes", ["verify", "codes", "--json"], 0, checks, (True, 39409)),
    ("classify-h3-unimodal", ["classify", "--type", "H3", "--what", "unimodal"], 0,
     lambda d: d["count"], 17),
    # principal (interval size = box volume), lazy-Fubini code and 312-avoiding
    # (S_n's 312-avoiders grown by inserting n into those of S_(n-1), testing only
    # the occurrences that use n) agree on every permutation of S_2..S_7, and each
    # principal interval factors over its code
    ("verify-catalan", ["verify", "catalan", "--json"], 0, checks, (True, 6542)),
    # the unimodal suite's forest check walks the 88 smooth permutations of S_5 with
    # their Hasse covers read off w, and the smooth suite's factorization check the same 88
    ("verify-unimodal", ["verify", "unimodal", "--json"], 0, checks, (True, 478)),
    ("verify-smooth", ["verify", "smooth", "--json"], 0, checks, (True, 97)),
    ("verify-h3-unimodal", ["verify", "h3-unimodal", "--json"], 0, checks, (True, 4)),
    ("verify-d-factorization", ["verify", "d-factorization", "--json"], 0, checks, (True, 12)),
    ("verify-h3-quotients", ["verify", "h3-quotients", "--json"], 0, checks, (True, 11)),
    ("verify-strict-inclusions", ["verify", "strict-inclusions", "--json"], 0, checks,
     (True, 5)),
    ("verify-msequence", ["verify", "msequence", "--json"], 0, checks, (True, 496)),
    # I2(60000) would store 116 GB: refused with exit 2 before its relations
    # (quadratic in m) are checked
    ("code-i2-60000-refused", ["code", "--type", "I2", "--m", "60000", "--word", "s1"], 2,
     lambda err: "I2(60000)" in err and "enumeration limit" in err, True),
    # the least principal code for each multiset of code entries: 33 unimodal elements of D5
    ("classify-d5-unimodal", ["classify", "--type", "D", "--rank", "5", "--what", "unimodal"],
     0, lambda d: d["count"], 33),
    # D6, the largest default group: the principal scan popcounts only the 615
    # elements whose lower covers match their code's nonzero entries
    ("classify-d6-principal", ["classify", "--type", "D", "--rank", "6", "--what", "principal"],
     0, lambda d: (d["count"], len(d["polynomials"])), (377, 67)),
    # D6's palindromic scan, atoms read off the BFS parents: 85 distinct palindromic polynomials
    ("classify-d6-pal", ["classify", "--type", "D", "--rank", "6", "--what", "pal"], 0,
     lambda d: d["count"], 85),
    # [e, w0] in A5, the routes sweep's largest interval: the step memo walks all
    # 720 points of the box, 1 maximum, every route prod [e+1]_q over 1..5
    ("hpoly-a5-w0", ["hpoly", "--type", "A", "--rank", "5", "--perm=6,5,4,3,2,1",
                     "--route", "all", "--json"], 0,
     lambda d: (d["agree"], d["routes"]["direct"], sum(d["routes"]["direct"]),
                len(d["routes"]["direct"])),
     (True, q_product(1, 2, 3, 4, 5), 720, 16)),
    # 561324 in A5 has 16 maxima, the most of any element in the routes sweep (tied
    # with B4): the widest inclusion-exclusion in the sweep, its meets one AND of
    # unary-coded points and its box polynomials packed one int each
    ("hpoly-a5-561324", ["hpoly", "--type", "A", "--rank", "5", "--perm=5,6,1,3,2,4",
                         "--route", "all", "--json"], 0,
     lambda d: (d["agree"], d["routes"]["direct"]),
     (True, [1, 5, 14, 27, 39, 43, 35, 20, 7, 1])),
    # 5,1,3,-4,2,-6 in D6 has 106 maxima in the 23,040-point box and 8,616 elements
    # below it, the widest maxima route pinned anywhere (the unit tests stop at D5): the
    # meet table's packed box polynomials, 15 bits per coefficient, summed and
    # unpacked once
    ("hpoly-d6-106-maxima", ["hpoly", "--type", "D", "--rank", "6", "--perm=5,1,3,-4,2,-6",
                             "--route", "maxima", "--json"], 0,
     lambda d: (d["routes"]["maxima"], sum(d["routes"]["maxima"])),
     ([1, 6, 20, 50, 104, 190, 313, 472, 658, 849, 1010, 1101, 1091, 972, 766, 522, 298,
       136, 46, 10, 1], 8616)),
    # [e, w0] in D6 on every route: w0 = -1, so the interval is the whole group and
    # each route is prod [e+1]_q over the exponents 1, 3, 5, 7, 9, 5, its
    # coefficients summing to |D6|; the interval ideal's scatter fills its largest
    # buffer, 23,041 digits read in base 2
    ("hpoly-d6-w0", ["hpoly", "--type", "D", "--rank", "6", "--perm=-1,-2,-3,-4,-5,-6",
                     "--route", "all", "--json"], 0,
     lambda d: (d["agree"], d["routes"], [sum(p) for p in d["routes"].values()]),
     (True, dict.fromkeys(("direct", "complex", "maxima"), q_product(1, 3, 5, 7, 9, 5)),
      [23040] * 3)),
    # a cold D6 query: the direct route alone
    ("hpoly-d6-w0-direct", ["hpoly", "--type", "D", "--rank", "6", "--perm=-1,-2,-3,-4,-5,-6",
                            "--route", "direct", "--json"], 0,
     lambda d: (d["routes"]["direct"], sum(d["routes"]["direct"]), len(d["routes"]["direct"])),
     (q_product(1, 3, 5, 7, 9, 5), 23040, 31)),
    # D6, the largest D group under the limit, which neither golden.json nor another
    # test pins a vector of: its six chains come from d_chain_words through the one
    # word walker
    ("code-d6", ["code", "--type", "D", "--rank", "6", "--perm=3,-5,1,-6,2,4", "--json"], 0,
     code_and_length, ([0, 2, 0, 4, 6, 3], 15)),
]

LARGE_ROWS = [
    # the smooth classification on S_8, which neither golden.json (A1-A5) nor ROWS
    # reaches: the 6,652 permutations avoiding 3412 and 4231, grown one inserted
    # entry at a time, give 2^7 distinct interval polynomials
    ("classify-a7-smooth", ["classify", "--type", "A", "--rank", "7", "--what", "smooth"], 0,
     lambda d: (d["count"], len(d["polynomials"])), (6652, 128)),
    # A7 and B6, the largest A and B groups under the limit, which neither
    # golden.json nor ROWS reaches: each quotient chain is walked from e along one
    # reduced word, every letter adding one to the length
    ("code-a7", ["code", "--type", "A", "--rank", "7", "--perm=3,7,1,8,2,6,4,5", "--json"], 0,
     code_and_length, ([0, 2, 0, 0, 2, 5, 4], 13)),
    ("code-b6", ["code", "--type", "B", "--rank", "6", "--perm=2,-5,1,-6,3,-4", "--json"], 0,
     code_and_length, ([0, 1, 0, 7, 6, 9], 23)),
    ("code-b6-variant", ["code", "--type", "B", "--rank", "6", "--perm=2,-5,1,-6,3,-4",
                         "--code", "variant", "--json"], 0,
     code_and_length, ([1, 0, 0, 7, 6, 9], 23)),
    # the whole A7, B6 and B6 variant tables, one digest each: every vector of the
    # 40,320 and 46,080 elements, where the rows above pin one element's
    ("code-a7-table", ["code", "--type", "A", "--rank", "7", "--dump-table"], 0, digest,
     "1c303a80f87bea036704d9478ae0a85dda4486e502a738b5374e08f012046e9d"),
    ("code-b6-table", ["code", "--type", "B", "--rank", "6", "--dump-table"], 0, digest,
     "f01165cfe343ad986988b58c8630851ce077f2508d2d50cf282821ad40c1d598"),
    ("code-b6-variant-table", ["code", "--type", "B", "--rank", "6", "--code", "variant",
                               "--dump-table"], 0, digest,
     "f5df87b91cb25b38835bd2c03c21009dfaeab7add3531a02767385e80bed731d"),
    # I2(2555), the largest admitted group: its 5,110 elements' code table, with the
    # relation check, the downsets and the covers of the largest enumeration
    ("code-i2-2555-table", ["code", "--type", "I2", "--m", "2555", "--dump-table"], 0, digest,
     "46d4d66ad95faa89b61e25a1491a20a6571847673d1db627ac80bbca036da9dd"),
]


def _outcome(argv):
    """(exit status, stdout, stderr) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:  # argparse refuses its usage errors this way
            status = exc.code
        except Exception:  # its traceback goes to stderr, printed with the row's id
            status = "an uncaught exception"
            traceback.print_exc()
    return status, out.getvalue(), err.getvalue()


def run(rows) -> int:
    """Run each row in this process; print the first that differs and return
    1, or return 0 when every row holds."""
    for pin, argv, status, read, want in rows:
        got_status, out, err = _outcome(argv)
        if status == 0:
            streams = err == ""
        else:
            streams = out == "" and err.startswith("error: ") and err.count("\n") == 1
        try:
            got = read(json.loads(out) if status == 0 else err)
        except (ValueError, KeyError, TypeError) as exc:
            got = f"unreadable: {exc!r}"
        if (got_status, streams, got) != (status, True, want):
            print(f"{pin}: got {got_status}, {got!r}; want {status}, {want!r}")
            print(f"  stdout {out[:500]!r}\n  stderr {err[-2000:]!r}")
            return 1
    print(f"{len(rows)} pins hold")
    return 0


def main() -> int:
    return run(ROWS + LARGE_ROWS)


if __name__ == "__main__":
    sys.exit(main())
