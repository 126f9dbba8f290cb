import json

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
    parsed polynomial, so its subspace polynomial is found once."""
    calls = []
    inner = decompose._maximal_subspace_poly

    def counted(poly):
        calls.append(poly)
        return inner(poly)

    monkeypatch.setattr(decompose, "_maximal_subspace_poly", counted)
    for verb, extra in (("valueset", ("--method", "both")), ("pp-test", ())):
        calls.clear()
        code, record = run_json(capsys, verb, "--field", "2^8",
                                "--poly", "x^9+[5]*x^3+x", *extra)
        assert code == 0 and record
        assert len(calls) == 1, verb


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
