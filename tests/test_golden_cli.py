"""Replay of the golden CLI records (tests/golden_cli.jsonl, written by
tests/make_golden_cli.py) through addix.cli.main, in process.

Exit codes and output compare exactly, except character-sum magnitudes:
the JSON fields sum and abs and the sweep's abs_sum column may differ by
the FFT error margin that addix.charsum states, 8 * eps * w * sqrt(L) *
log2(L), at its largest weight w = q.  The sweep prints six decimals, so
its column may also differ by one unit in that place.
"""

import json
import math
import pathlib
import sys

import pytest

from addix.charsum import _transform_size
from addix.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.jsonl")
RECORDS = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def _margin(field_spec: str) -> float:
    p, _, n = field_spec.partition("^")
    q = int(p) ** int(n or 1)
    size = _transform_size(q - 1)
    return 8 * sys.float_info.epsilon * q * math.sqrt(size) * math.log2(size)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _same_charsum_json(expected: str, out: str, tol: float) -> bool:
    want, got = json.loads(expected), json.loads(out)
    if want.keys() != got.keys():
        return False
    for key in want:
        if key == "sum":
            if not all(_close(a, b, tol) for a, b in zip(want[key], got[key])):
                return False
        elif key == "abs":
            if not _close(want[key], got[key], tol):
                return False
        elif want[key] != got[key]:
            return False
    return True


def _same_sweep(expected: str, out: str, tol: float) -> bool:
    want, got = expected.splitlines(), out.splitlines()
    if len(want) != len(got) or want[:1] != got[:1]:
        return False
    for w, g in zip(want[1:], got[1:]):
        wc, gc = w.split(","), g.split(",")
        # columns: poly_id, char, abs_sum, additive_bound, weil_bound, trivial_bound
        if wc[:2] + wc[3:] != gc[:2] + gc[3:]:
            return False
        if not _close(float(wc[2]), float(gc[2]), tol + 1e-6):
            return False
    return True


def _same(record, code: int, out: str) -> bool:
    if code != record["exit"]:
        return False
    expected, argv = record["stdout"], record["argv"]
    if out == expected:
        return True
    if argv[0] != "charsum" or code != 0 or "--format" in argv:
        return False
    tol = _margin(argv[argv.index("--field") + 1])
    if "--sweep" in argv:
        return _same_sweep(expected, out, tol)
    return _same_charsum_json(expected, out, tol)


def test_golden_file_covers_every_exit_code():
    assert {r["exit"] for r in RECORDS} == {0, 1, 2, 3}
    assert GOLDEN.stat().st_size < 300_000


def test_cli_replays_golden_records(capsys):
    mismatched = []
    for record in RECORDS:
        code = main(list(record["argv"]))
        out = capsys.readouterr().out
        if not _same(record, code, out):
            mismatched.append((record["argv"], record["exit"], code, out[:200]))
    assert not mismatched, mismatched[:5]


@pytest.mark.parametrize("drift, ok", [(0.0, True), (0.5, True), (1e6, False)])
def test_magnitudes_compare_within_the_margin(drift, ok):
    """drift is in units of the field's margin."""
    record = next(r for r in RECORDS if r["argv"][0] == "charsum" and r["exit"] == 0
                  and "--sweep" not in r["argv"] and "--format" not in r["argv"])
    shifted = json.loads(record["stdout"])
    shifted["abs"] += drift * _margin(record["argv"][2])
    assert _same(record, 0, json.dumps(shifted, sort_keys=True) + "\n") is ok
