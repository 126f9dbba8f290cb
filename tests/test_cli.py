import json
from collections import Counter

from addix import decompose
from addix.cli import main
from addix.field import parse_field_spec
from addix.poly import parse_poly
from addix.verify import suite_involution_translator


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_index_example_f8(capsys):
    code, record = run_json(capsys, "index", "--field", "2^3", "--poly", "x^3")
    assert code == 0
    assert record["index"] == 3
    assert record["L"] == "x"
    assert record["M"] == "0"
    assert record["f"] == "x^3"
    assert record["kernel_basis"] == []


def test_index_example_f9(capsys):
    code, record = run_json(capsys, "index", "--field", "3^2",
                            "--poly", "(x^3-x)^2+x")
    assert code == 0
    assert record["index"] == 1
    field = parse_field_spec("3^2")
    assert parse_poly(record["L"], field) == parse_poly("x^3-x", field)
    assert record["L_lin_coeffs"] == [2, 1]


def test_emitted_polys_reparse(capsys):
    code, record = run_json(capsys, "index", "--field", "3^2",
                            "--poly", "(x^3-x)^2+x")
    field = parse_field_spec("3^2")
    rebuilt = (parse_poly(record["f"], field).compose(parse_poly(record["L"], field))
               + parse_poly(record["M"], field))
    assert rebuilt == parse_poly("(x^3-x)^2+x", field)


def test_decompose_with_base(capsys):
    code, record = run_json(capsys, "decompose", "--field", "3^2",
                            "--poly", "(x^3-x)^2+x", "--base", "2,0,1")
    assert code == 0 and record["ok"] is False and record["remainder"] != "0"
    code, record = run_json(capsys, "decompose", "--field", "3^2",
                            "--poly", "(x^3-x)^2+x", "--base", "1")
    assert code == 0 and record["ok"] is True


def test_decompose_with_base_output_is_pinned(capsys):
    """Records of `decompose --base`, byte for byte, for bases that divide
    the maximal subspace polynomial (many digits among them) and bases
    that do not."""
    cases = [
        (("3^2", "(x^3-x)^2+x", "2,0,1"), '{"ok": false, "remainder": "x^3 + 2*x"}'),
        (("3^2", "(x^3-x)^2+x", "1"), '{"M": "0", "f": "x^6 + x^4 + x^2 + x", "ok": true}'),
        (("2^4", "(x^4+x)^3+(x^4+x)+x", "6,1"),
         '{"M": "x", "f": "x^6 + [7]*x^5 + [6]*x^4 + x^3 + x^2 + [7]*x", "ok": true}'),
        (("2^8", "(x^16+x)^5+x^3+[7]*x^2+x", "1,1"), '{"ok": false, "remainder": "x"}'),
        (("5^2", "(x^5-x)^4+[7]*x^5", "4,1"), '{"M": "[7]*x", "f": "x^4 + [7]*x", "ok": true}'),
        (("2^10", "(x^2+x)^40+x^4+x", "1,1"), '{"M": "0", "f": "x^40 + x^2 + x", "ok": true}'),
        (("3^3", "(x^3-x)^11+x^9+x", "2,1"), '{"M": "2*x", "f": "2*x^5 + x", "ok": true}'),
    ]
    for (field, poly, base), record in cases:
        code, out = run(capsys, "decompose", "--field", field, "--poly", poly, "--base", base)
        assert code == 0 and out == record + "\n"


def test_valueset_both_methods(capsys):
    code, record = run_json(capsys, "valueset", "--field", "3^2", "--poly", "x^2")
    assert code == 0
    assert record["size_theorem"] == record["size_brute"] == 5
    assert record["bounds"]["implication_holds"] is True


def test_pp_and_witness(capsys):
    code, record = run_json(capsys, "pp-test", "--field", "3^2", "--poly", "x^2")
    assert code == 0
    assert record["certificate"]["is_pp"] is False
    assert record["brute"]["is_pp"] is False
    a, b = record["brute"]["witness"]
    assert a != b


def test_one_decomposition_per_polynomial(capsys, monkeypatch):
    """valueset --method both and pp-test each run their verbs on one
    parsed polynomial, so its subspace polynomial, the kernel's coset
    representatives and the image subspace are each found once."""
    calls = Counter()
    for name in ("_maximal_subspace_poly", "coset_reps", "subspace_image"):
        def counted(*args, _name=name, _inner=getattr(decompose, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(decompose, name, counted)
    for poly in ("x^9+[5]*x^3+x", "(x^4+x)^3+(x^4+x)+x"):
        for verb, extra in (("valueset", ("--method", "both")), ("pp-test", ())):
            calls.clear()
            code, record = run_json(capsys, verb, "--field", "2^8",
                                    "--poly", poly, *extra)
            assert code == 0 and record
            assert calls == {"_maximal_subspace_poly": 1, "coset_reps": 1,
                             "subspace_image": 1}, (poly, verb)


def test_invert_and_cycles(capsys):
    code, record = run_json(capsys, "invert", "--field", "5^1", "--poly", "2*x+1")
    assert code == 0 and record["inverse"] == "3*x + 2"
    code, record = run_json(capsys, "cycles", "--field", "5^1", "--poly", "x+1")
    assert code == 0 and record["cycles"] == {"5": 1}


def test_construct_cycles(capsys):
    code, record = run_json(capsys, "construct-cycles", "--field", "2^4",
                            "--fixed", "4")
    assert code == 0 and record["cycles"] == {"1": 4, "2": 6}


def test_involution_verb(capsys):
    code, record = run_json(capsys, "involution", "--field", "3^2", "--poly=-x")
    assert code == 0 and record["is_involution"] is True
    code, out = run(capsys, "involution", "--field", "2^4", "--poly", "x^2",
                    "--format", "text")
    assert code == 0
    assert out.splitlines() == ["is_involution: False", "image_equals_kernel: True",
                                "restriction_order_two: False", "reps_return: True",
                                "brute: False"]


def test_translator_verb(capsys):
    code, record = run_json(capsys, "translator", "--field", "3^2",
                            "--g", "x^3+x", "--subspace", "1",
                            "--m-lin", "2", "--h", "0")
    assert code == 0
    assert record["is_translator"] is True
    assert record["is_pp"] is True


def test_translator_frobenius_power_mod_n(capsys):
    for scale, expected in (("1", False), ("2", True)):
        for power in ("1", "-1", "21"):
            code, record = run_json(capsys, "translator", "--field", "3^2",
                                    "--g", "x^3+x", "--subspace", "1", "--m-lin", "2",
                                    "--kind", "frobenius", "--gamma", "1",
                                    "--b", scale, "--frob-i", power)
            assert code == 0
            assert record["is_translator"] is expected


def test_charsum_verb_and_sweep(capsys):
    code, record = run_json(capsys, "charsum", "--field", "3^2",
                            "--poly", "(x^3-x)^2+x", "--char", "1")
    assert code == 0
    assert record["additive_bound"] == 9.0
    code, out = run(capsys, "charsum", "--field", "2^4", "--sweep", "3", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# addix-csv v1:")
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_exit_codes(capsys):
    code, out = run(capsys, "index", "--field", "nope", "--poly", "x")
    assert code == 1 and json.loads(out)["error"]["type"] == "parse"
    code, out = run(capsys, "invert", "--field", "3^2", "--poly", "x^2")
    assert code == 2 and json.loads(out)["error"]["type"] == "precondition"
    code, out = run(capsys, "index", "--field", "2^3", "--poly", "x^3",
                    "--bogus-flag")
    assert code == 1
    code, out = run(capsys, "verify", "--suite", "not-a-suite")
    assert code == 1


def test_out_of_range_codes_refused(capsys):
    code, out = run(capsys, "translator", "--field", "3^2", "--g", "x",
                    "--subspace", "99", "--m-lin", "1")
    assert code == 2 and json.loads(out)["error"]["type"] == "precondition"
    code, out = run(capsys, "decompose", "--field", "3^2",
                    "--poly", "(x^3-x)^2+x", "--base=-8")
    assert code == 2 and json.loads(out)["error"]["type"] == "precondition"


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "fixed-regressions")
    assert code == 0
    assert out.startswith("PASS fixed-regressions")


def test_verify_defaults_to_each_suites_own_seed(capsys):
    # without --seed, verify must check the sample the suite checks at its
    # own default seed, as the pytest acceptance criteria do
    expected = suite_involution_translator(max_q=9)
    assert "p odd 8" in expected.detail
    code, out = run(capsys, "verify", "--suite", "involution-translator",
                    "--max-q", "9")
    assert code == 3
    assert out.splitlines()[0] == f"FAIL involution-translator: {expected.detail}"


def test_output_deterministic(capsys):
    argv = ["valueset", "--field", "2^4", "--poly", "x^6+[5]*x^3+x"]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)
