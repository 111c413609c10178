"""Command line front end.

    coxlehmer code     --type A --rank 3 --word "s2 s1 s3 s2"
    coxlehmer hpoly    --type A --rank 3 --perm 3412 --route all
    coxlehmer complex  --type H3 [--word ...]
    coxlehmer classify --type H3 --what unimodal
    coxlehmer verify   catalan --n 5

Exit status: 0 success, 1 verification failure (InvalidCodeImage and
ShellingFailure too) or a stdout closed early, as by `| head`, 2 usage or
parse error or a size limit (SizeLimitError) refusing the computation.
All JSON output uses exact integers.

`main` may be called any number of times in one process: the argument
parser is built by the first call and reused, since parse_args keeps no
state between calls (each gets a fresh namespace and the defaults).  A
call that names a verb is parsed once, by that verb's own parser; the top
parser reads only --help, a missing verb and an unknown verb.  So an
unrecognized argument after a verb is reported with the verb's usage line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import intervals
from .codes import _shared_code
from .coxeter import ENUMERATION_LIMIT, BruhatPoset, SizeLimitError, shared_poset, system_key
from .schubert import smooth_permutations
from .simplicial import ShellingFailure
from .verify import SUITES, run_suite


class CLIError(Exception):
    """Usage-level problem; reported on stderr with exit status 2."""


class _TopParser(argparse.ArgumentParser):
    """Hands a known verb's arguments straight to that verb's parser, one
    pass where the subparser action would parse them a second time."""

    verbs: dict[str, argparse.ArgumentParser]  # build_parser sets it

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        verb = self.verbs.get(args[0]) if args else None
        if verb is None:
            return super().parse_args(args, namespace)
        namespace = verb.parse_args(args[1:], namespace)
        namespace.command = args[0]
        return namespace


def build_parser() -> argparse.ArgumentParser:
    p = _TopParser(
        prog="coxlehmer",
        description="Lehmer codes, Bruhat intervals and their complexes "
                    "for finite Coxeter groups of types A, B, D, H3, I2(m).",
        epilog=f"Groups whose enumeration and code would store more than "
               f"ENUMERATION_LIMIT = {ENUMERATION_LIMIT:,} bytes are refused with exit "
               f"status 2; the README's enumeration-limit paragraph states the model.")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=argparse.ArgumentParser)
    p.verbs = sub.choices

    def add_system(sp, with_element=True):
        sp.add_argument("--type", dest="label", required=True,
                        choices=["A", "B", "D", "H3", "I2"])
        sp.add_argument("--rank", type=int, help="rank for types A, B, D")
        sp.add_argument("--m", type=int, help="m for type I2(m)")
        sp.add_argument("--code", default="standard",
                        choices=["standard", "dual", "variant"])
        if with_element:
            sp.add_argument("--word", help='generator word like "s2 s1 s3 s2"; "" is e')
            sp.add_argument("--perm", help="one-line element, e.g. 3412 or 2,-1,3; "
                                           "write --perm=-1,-2,3,4 when it starts with a minus")

    sp = sub.add_parser("code", help="print the code vector and length of an element")
    add_system(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--dump-table", action="store_true",
                    help="emit the whole code as a JSON table")

    sp = sub.add_parser("hpoly", help="interval rank generating function")
    add_system(sp)
    sp.add_argument("--route", default="all",
                    choices=[*intervals.ROUTES, "all"])
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("complex", help="interval or group complex as JSON")
    add_system(sp)

    sp = sub.add_parser("classify", help="principal/unimodal/smooth/palindromic listings")
    add_system(sp, with_element=False)
    sp.add_argument("--what", default="unimodal",
                    choices=["principal", "unimodal", "smooth", "pal"])

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", help=f"one of: {', '.join([*SUITES, 'all'])}")
    sp.add_argument("--n", type=int, help="size bound where the suite takes one")
    sp.add_argument("--max-rank", type=int, dest="max_rank",
                    help="only systems up to this rank")
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--out", help="also write the JSON report to this file")
    sp.add_argument("--json", action="store_true")
    return p


def _get_poset(args) -> BruhatPoset:
    label, rank, m = args.label, args.rank, args.m
    if label != "I2" and m is not None:
        raise CLIError(f"--m applies to type I2 only, not {label}")
    if label == "I2" and rank is not None:
        raise CLIError("type I2 takes --m, not --rank")
    if label == "I2" and m is None:
        raise CLIError("type I2 needs --m")
    if label in ("A", "B", "D") and rank is None:
        raise CLIError(f"type {label} needs --rank")
    if args.code == "variant" and label != "B":
        raise CLIError("only type B has a variant code")
    return shared_poset(label, rank, m)


def _get_code(args):
    return _shared_code(*system_key(args.label, args.rank, args.m), args.code)


def _parse_word(poset: BruhatPoset, text: str) -> int:
    word = []
    for pos, tok in enumerate(text.split(), start=1):
        if not tok.startswith("s") or not tok[1:].isdigit():
            raise CLIError(f"cannot read generator {tok!r} at position {pos}; "
                           f"expected s<index> like s2")
        try:
            word.append(poset.system.gen_index(int(tok[1:])))
        except ValueError as exc:
            raise CLIError(f"at position {pos}: {exc}") from None
    return poset.apply_word(word)


def _parse_perm(poset: BruhatPoset, text: str) -> int:
    label = poset.system.label
    if label not in ("A", "B", "D"):
        raise CLIError(f"--perm applies to types A, B, D; use --word for {label}")
    text = text.strip()
    tokens = text.replace(",", " ").split() if any(c in text for c in ", -") else text
    try:
        vals = tuple(int(t) for t in tokens)
    except ValueError:
        raise CLIError(f"cannot read one-line element {text!r}") from None
    if vals not in poset.index:
        n = poset.system.rank + 1 if label == "A" else poset.system.rank
        need = f"a {'signed ' if label != 'A' else ''}permutation of 1..{n}"
        if label == "D" and sorted(map(abs, vals)) == list(range(1, n + 1)):
            need = "an even number of minus signs"
        raise CLIError(f"{vals} is not an element of {poset.system.describe()} "
                       f"(need {need})")
    return poset.index[vals]


def _parse_element(poset: BruhatPoset, args) -> int | None:
    if args.word is not None and args.perm is not None:
        raise CLIError("give --word or --perm, not both")
    if args.word is not None:
        return _parse_word(poset, args.word)
    if args.perm is not None:
        return _parse_perm(poset, args.perm)
    return None


def cmd_code(args) -> int:
    if args.dump_table and (args.word is not None or args.perm is not None):
        raise CLIError("--dump-table prints the whole code; give no --word or --perm")
    poset = _get_poset(args)
    code = _get_code(args)
    if args.dump_table:
        print(json.dumps(code.to_json(), sort_keys=True))
        return 0
    w = _parse_element(poset, args)
    if w is None:
        raise CLIError("code needs an element: --word or --perm")
    vec = code.of(w)
    if args.json:
        print(json.dumps({"system": poset.system.describe(), "code_name": code.name,
                          "element": poset.render(w), "code": list(vec),
                          "length": poset.length[w]}))
    else:
        print(f"{code.name}({poset.render(w)}) = ({', '.join(map(str, vec))})")
        print(f"length = {poset.length[w]}")
    return 0


def cmd_hpoly(args) -> int:
    poset = _get_poset(args)
    routes = intervals.ROUTES if args.route == "all" else (args.route,)
    code = poset if args.route == "direct" else _get_code(args)  # direct reads no code
    w = _parse_element(poset, args)
    if w is None:
        raise CLIError("hpoly needs an element: --word or --perm")
    polys = {r: intervals.interval_poincare(w, code, r) for r in routes}
    agree = len({p for p in polys.values()}) == 1
    if args.json:
        print(json.dumps({"system": poset.system.describe(),
                          "element": poset.render(w),
                          "routes": {r: p.to_json() for r, p in polys.items()},
                          "agree": agree}))
    else:
        for route, p in polys.items():
            print(f"{route:8s} {p.text()}")
    if not agree:
        print("routes disagree", file=sys.stderr)
        return 1
    return 0


def cmd_complex(args) -> int:
    poset = _get_poset(args)
    w = _parse_element(poset, args)
    if w is None:
        sc = intervals.group_complex(poset)
    else:
        sc = intervals.interval_complex(w, _get_code(args))
    doc = sc.to_json()
    doc["facet_count"] = sc.facet_count
    print(json.dumps(doc))
    return 0


def cmd_classify(args) -> int:
    poset = _get_poset(args)
    doc = {"system": poset.system.describe()}
    if args.what == "pal":
        polys = intervals.palindromic_intervals(poset)
        doc.update({"class": "pal", "count": len(polys)})
    elif args.what == "smooth":
        if poset.system.label != "A":
            raise CLIError("--what smooth applies to type A only")
        perms = smooth_permutations(poset.system.rank + 1)
        polys = intervals.interval_polynomials(poset, (poset.index[p] for p in perms))
        doc.update({"class": "smooth", "count": len(perms)})
    else:
        code = _get_code(args)
        elems = (intervals.principal_set(code) if args.what == "principal"
                 else intervals.unimodal_set(code))
        polys = intervals.interval_polynomials(poset, elems)
        doc.update({"code_name": code.name, "class": args.what, "count": len(elems),
                    "elements": [poset.render(w) for w in elems],
                    "codes": [list(code.of(w)) for w in elems]})
    doc["polynomials"] = [p.to_json() for p in sorted(polys, key=lambda p: (p.degree, p.coeffs))]
    print(json.dumps(doc))
    return 0


def cmd_verify(args) -> int:
    started = time.monotonic()
    report = run_suite(args.suite, n=args.n, max_rank=args.max_rank, seed=args.seed)
    seconds = round(time.monotonic() - started, 3)
    doc = report.to_json()
    doc.update({"suite": args.suite, "seconds": seconds, "seed": args.seed})
    if args.out:
        try:
            Path(args.out).write_text(json.dumps(doc, indent=1))
        except OSError as exc:
            raise CLIError(f"cannot write the report to {args.out}: {exc.strerror or exc}") from None
    if args.json:
        print(json.dumps(doc))
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"{args.suite}: {status} ({report.instances} checks, "
              f"{report.failures} failures, {seconds}s)")
        for w in report.witnesses:
            print(f"  witness: {w}")
        for note in report.notes:
            print(f"  note: {note}")
    return 0 if report.passed else 1


COMMANDS = {
    "code": cmd_code,
    "hpoly": cmd_hpoly,
    "complex": cmd_complex,
    "classify": cmd_classify,
    "verify": cmd_verify,
}


_parser: argparse.ArgumentParser | None = None  # built by the first main() call
FAILURES = (intervals.InvalidCodeImage, ShellingFailure)  # exit status 1


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        status = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except (CLIError, SizeLimitError, ValueError, *FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, FAILURES) else 2
    except BrokenPipeError:  # the reader left: what is still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
