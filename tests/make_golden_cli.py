"""Write the golden CLI records that tests/test_golden_cli.py replays.

Each line of the output is one JSON record {"argv", "exit", "stdout"}: the
arguments given to addix.cli.main, its exit code and everything it printed
on stdout.  The cases cover every verb over GF(2^4), GF(3^2), GF(3^3),
GF(2^6), GF(2^8) and GF(5^2), the parse exit (1), the precondition exit
(2), charsum --sweep and verify --suite all --max-q 16 (exit 3).

    PYTHONPATH=src python tests/make_golden_cli.py [OUTPUT]

OUTPUT defaults to tests/golden_cli.jsonl.  Regenerate the file only with
a change that alters an output on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from addix.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.jsonl")

# field spec -> polynomials run through every per-polynomial verb: maximal
# and trivial kernels, permutations and non-permutations, linearized maps,
# and a degree at or above q that is folded modulo x^q - x
POLYS = {
    "2^4": ["x^3", "(x^4+x)^3+(x^4+x)+x", "x^6+[5]*x^3+x", "x^4+x^2+x",
            "x^7", "x^2+x", "[3]*x+[7]", "x^17+x^2"],
    "3^2": ["(x^3-x)^2+x", "x^2", "x^5", "x^3+x", "-x", "x^3+[5]*x+1",
            "x^9+x^2"],
    "3^3": ["(x^3-x)^11+x^9+x", "x^5", "x^9+x^3+x", "(x^9-x)^2+[4]*x",
            "x^3-x", "[7]*x+2"],
    "2^6": ["(x^2+x)^5+x^4+x", "x^5", "x^16+x^2", "x^8+x", "(x^8+x)^3+x",
            "x^13+[9]*x^2"],
    "2^8": ["x^9+[5]*x^3+x", "(x^4+x)^3+(x^4+x)+x", "(x^16+x)^5+x^3+[7]*x^2+x",
            "x^7", "x^2+x", "x^127"],
    "5^2": ["(x^5-x)^4+[7]*x^5", "x^7", "x^5+[3]*x", "x^2+x", "x^24+1"],
}

VERBS = [
    ["index"], ["decompose"], ["valueset"], ["pp-test"], ["invert"],
    ["cycles"], ["involution"], ["charsum", "--char", "0"],
    ["charsum", "--char", "1"], ["charsum", "--char", "3"],
]

# (field, poly, base) for decompose --base: bases that divide the maximal
# subspace polynomial and bases that do not
BASES = [
    ("2^4", "(x^4+x)^3+(x^4+x)+x", "6,1"), ("2^4", "x^6+[5]*x^3+x", "1,1"),
    ("3^2", "(x^3-x)^2+x", "2,0,1"), ("3^2", "(x^3-x)^2+x", "1"),
    ("3^3", "(x^3-x)^11+x^9+x", "2,1"), ("2^6", "(x^2+x)^5+x^4+x", "1,1"),
    ("2^8", "(x^16+x)^5+x^3+[7]*x^2+x", "1,1"), ("5^2", "(x^5-x)^4+[7]*x^5", "4,1"),
]

OTHER = [
    # construct-cycles at every field: fixed 0, p, p^2 and q
    *(["construct-cycles", "--field", f, "--fixed", str(k)]
      for f, ks in (("2^4", (0, 2, 4, 16)), ("3^2", (0, 3, 9)), ("3^3", (0, 3, 9, 27)),
                    ("2^6", (0, 2, 8, 64)), ("2^8", (0, 4, 256)), ("5^2", (0, 5, 25)))
      for k in ks),
    # translators, general and of the two closed-form kinds
    ["translator", "--field", "3^2", "--g", "x^3+x", "--subspace", "1",
     "--m-lin", "2", "--h", "0"],
    ["translator", "--field", "3^2", "--g", "x^3+x", "--subspace", "1",
     "--m-lin", "2", "--kind", "frobenius", "--gamma", "1", "--b", "2",
     "--frob-i", "21"],
    ["translator", "--field", "3^2", "--g", "x^3+x", "--subspace", "1",
     "--m-lin", "2", "--kind", "b_linear", "--gamma", "1", "--b", "1"],
    ["translator", "--field", "2^4", "--g", "x^8+x^4+x^2+x", "--subspace", "1",
     "--m-lin", "0", "--h", "x"],
    ["translator", "--field", "2^4", "--g", "x^4+x", "--subspace", "1,6",
     "--m-lin", "1,0,1", "--h", "x"],
    ["translator", "--field", "2^4", "--g", "x^4+x", "--subspace", "1,6",
     "--m-lin", "1,0,1", "--h", "x^2"],
    ["translator", "--field", "2^6", "--g", "x^2+x", "--subspace", "1,2,4,8,16",
     "--m-lin", "1,1", "--h", "0"],
    ["translator", "--field", "2^8", "--g", "x^16+x", "--subspace", "1,12,80,224",
     "--m-lin", "1,0,0,0,1", "--h", "x"],
    ["translator", "--field", "3^3", "--g", "x^3-x", "--subspace", "1,3",
     "--m-lin", "2,1", "--h", "x"],
    ["translator", "--field", "3^3", "--g", "x^9+x^3+x", "--subspace", "1",
     "--m-lin", "0", "--h", "x"],
    ["translator", "--field", "5^2", "--g", "x^5+x", "--subspace", "1",
     "--m-lin", "2", "--h", "[2]*x"],
    ["translator", "--field", "5^2", "--g", "x^5-x", "--subspace", "5",
     "--m-lin", "4,1", "--h", "x"],
    ["translator", "--field", "2^4", "--g", "x^2+x", "--subspace", "1,2",
     "--m-lin", "1,1"],
    # text format
    ["index", "--field", "3^2", "--poly", "(x^3-x)^2+x", "--format", "text"],
    ["charsum", "--field", "2^4", "--poly", "x^6+[5]*x^3+x", "--char", "5",
     "--format", "text"],
    # sweeps
    ["charsum", "--field", "2^4", "--sweep", "3", "--seed", "5"],
    ["charsum", "--field", "3^2", "--sweep", "2"],
    ["charsum", "--field", "3^3", "--sweep", "2", "--seed", "1"],
    ["charsum", "--field", "2^6", "--sweep", "2", "--seed", "2"],
    ["charsum", "--field", "2^8", "--sweep", "2", "--seed", "3"],
    ["charsum", "--field", "5^2", "--sweep", "2", "--seed", "4"],
    # verify: every suite at q <= 16 (exit 3) and one that passes
    ["verify", "--suite", "all", "--max-q", "16"],
    ["verify", "--suite", "fixed-regressions"],
    # parse errors (exit 1)
    ["index", "--field", "nope", "--poly", "x"],
    ["index", "--field", "2^4/1,1", "--poly", "x"],
    ["index", "--field", "2^4", "--poly", "x^^2"],
    ["index", "--field", "2^4", "--poly", "y"],
    ["index", "--field", "2^4", "--poly", "[16]"],
    ["index", "--field", "5", "--poly", "a"],
    ["index", "--field", "2^3", "--poly", "x^3", "--bogus-flag"],
    ["charsum", "--field", "2^4"],
    ["translator", "--field", "3^2", "--g", "x", "--subspace", "1,a", "--m-lin", "1"],
    ["verify", "--suite", "not-a-suite"],
    # precondition errors (exit 2)
    ["index", "--field", "4", "--poly", "x"],
    ["index", "--field", "2^30", "--poly", "x"],
    ["index", "--field", "2^2/1,0,1", "--poly", "x"],
    ["index", "--field", "2^4", "--poly", "1"],
    ["decompose", "--field", "3^2", "--poly", "(x^3-x)^2+x", "--base=-8"],
    ["decompose", "--field", "2^4", "--poly", "x^3", "--base", "1,1,1"],
    ["construct-cycles", "--field", "3^2", "--fixed", "1"],
    ["construct-cycles", "--field", "2^4", "--fixed", "18"],
    ["translator", "--field", "3^2", "--g", "x", "--subspace", "99", "--m-lin", "1"],
    ["translator", "--field", "3^2", "--g", "x^3+x", "--subspace", "1",
     "--m-lin", "2", "--kind", "b_linear"],
    ["translator", "--field", "2^4", "--g", "x^4+x", "--subspace", "1,6",
     "--m-lin", "1,0,1", "--h", "[2]*x"],
    ["translator", "--field", "2^4", "--g", "x^8+x^4+x^2+x", "--subspace", "1,2",
     "--m-lin", "0", "--h", "x"],
]


def cases():
    """Every argv, in file order."""
    for field, polys in POLYS.items():
        for poly in polys:
            for verb in VERBS:
                yield [verb[0], "--field", field, f"--poly={poly}", *verb[1:]]
    for field, poly, base in BASES:
        yield ["decompose", "--field", field, "--poly", poly, "--base", base]
    yield from OTHER


def run(argv) -> tuple[int, str]:
    """Exit code and stdout of addix.cli.main on argv, in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def write() -> None:
    target = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    with open(target, "w", encoding="utf-8") as fh:
        for argv in cases():
            code, out = run(argv)
            fh.write(json.dumps({"argv": argv, "exit": code, "stdout": out},
                                sort_keys=True) + "\n")


if __name__ == "__main__":
    write()
