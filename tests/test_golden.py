"""Golden output hashes: the CLI's output on a fixed set of commands, one
SHA-256 per command family, so a refactor that claims "no output moved"
is checked rather than asserted.

Each family also stores a short digest per command, in the order of
`families()`, so a mismatch names the first command whose output differs.
A command's output is its exit status, stdout and stderr; `verify all
--json` drops its `seconds`.  After a change that is meant to move an
output, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from coxlehmer import cli
from coxlehmer.coxeter import shared_poset
from coxlehmer.verify import CODE_SYSTEMS

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SWEEP_SYSTEMS = [("A", 5, None), ("B", 4, None), ("D", 4, None), ("H3", None, None)]


def _system_args(label, rank, m):
    args = ["--type", label]
    if rank is not None:
        args += ["--rank", str(rank)]
    if m is not None:
        args += ["--m", str(m)]
    return args


def _element_arg(poset, w):
    if poset.system.label in ("A", "B", "D"):
        return f"--perm={poset.render(w)}"
    return f"--word={'' if w == 0 else poset.render(w)}"


def families() -> dict[str, list[list[str]]]:
    """Family name -> the argv of each of its commands."""
    hpoly = []
    for system in SWEEP_SYSTEMS:
        poset = shared_poset(*system)
        hpoly += [["hpoly", *_system_args(*system), _element_arg(poset, w),
                   "--route", "all", "--json"] for w in range(poset.size)]
    return {
        "classify": [["classify", *_system_args(*s), "--what", what]
                     for s in CODE_SYSTEMS for what in ("principal", "unimodal", "pal")],
        "classify-smooth": [["classify", "--type", "A", "--rank", str(n), "--what", "smooth"]
                            for n in range(1, 6)],
        "dump-table": [["code", *_system_args(*s), "--dump-table"] for s in CODE_SYSTEMS],
        "hpoly": hpoly,
        "verify-all": [["verify", "all", "--json"]],
        "complex": [["complex", "--type", "H3"],
                    ["complex", "--type", "A", "--rank", "3", "--perm", "3412"]],
    }


def _output(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    text = out.getvalue()
    if argv[:2] == ["verify", "all"]:
        doc = json.loads(text)
        del doc["seconds"]
        text = json.dumps(doc)
    return f"{status}\n{text}\n{err.getvalue()}".encode()


def digests(commands) -> tuple[str, list[str]]:
    """(SHA-256 of all outputs in order, a 12-hex digest of each)."""
    whole, each = hashlib.sha256(), []
    for argv in commands:
        data = _output(argv)
        whole.update(hashlib.sha256(data).digest())
        each.append(hashlib.sha256(data).hexdigest()[:12])
    return whole.hexdigest(), each


def test_outputs_match_the_golden_hashes():
    golden = json.loads(GOLDEN.read_text())
    fams = families()
    assert sorted(golden) == sorted(fams)
    for name, commands in fams.items():
        whole, each = digests(commands)
        want = golden[name]
        assert len(each) == len(want["commands"]), f"{name}: command count changed"
        for argv, got, expected in zip(commands, each, want["commands"]):
            assert got == expected, f"{name}: output of `coxlehmer {' '.join(argv)}` changed"
        assert whole == want["sha256"], f"{name}: outputs changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    doc = {}
    for name, commands in families().items():
        whole, each = digests(commands)
        doc[name] = {"sha256": whole, "commands": each}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
