import hashlib
import json

import pytest

from dworklab.arith import TPoly
from dworklab.cli import _odd_prime, build_parser, cli_main


# sha256 of canonical stdout; a refactor must leave every digest unchanged
GOLDEN = {
    "hw": (
        ["hw", "--preset", "simplicial", "--dim", "2", "--prime", "5", "--mu",
         "interior"],
        "b31728542979bbf6f6ca1980310c4ceb9c3df1ef86c3035cd29dceafee67d1b9",
    ),
    "lambda": (
        ["lambda", "--poly", "simplicial.json", "--prime", "5", "--mu", "interior",
         "--steps", "1", "--t-trunc", "9"],
        "b31728542979bbf6f6ca1980310c4ceb9c3df1ef86c3035cd29dceafee67d1b9",
    ),
    "cartier": (
        ["cartier", "--poly", "triangle.json", "--prime", "3", "--precision", "2",
         "--bound", "2"],
        "36f0c095e799600c16d55d1a3fc776fcbe70444b7fdbc2348e0781eb4ed15b1a",
    ),
    "crosscheck": (
        ["crosscheck", "--poly", "triangle.json", "--prime", "5", "--smax", "2"],
        "88fd7f106a59952ec141f360e7809ecd55e8807642ef20810c69a3cc241184a5",
    ),
    "higher-hw": (
        ["higher-hw", "--poly", "simplicial.json", "--prime", "5", "--level", "2",
         "--mu", "whole"],
        "51ef992580ac1be29f43cfce67518e0f1b21ec081c9a60a547dcd1170872823b",
    ),
    "cy-frobenius": (
        ["cy", "frobenius", "--family", "simplicial", "--dim", "2", "--prime", "5"],
        "7ab85275f08ba507dc32d897e5b6fd3520c50fc1bb67a2145b1624a75367a23d",
    ),
    "cy-excellent": (
        ["cy", "excellent", "--family", "simplicial", "--dim", "2", "--prime", "5"],
        "b2cb9828de8d9e97b3e39df87e1023df5b4f77d5a890ad1eefd542ab704395ee",
    ),
    "cy-instanton": (
        ["cy", "instanton", "--family", "quintic", "--degree", "4"],
        "098d1ac3eb1e806ba8adb1f0f8f3c458a32a4a3aa2e913af808e276174301f51",
    ),
    "gamma-p": (
        ["gamma-p", "--x", "1", "--prime", "7", "--precision", "3"],
        "bc5382ab6f4505bb4874e6070e4a8c98803582a0a54eb6301d870c6122ff60ca",
    ),
    "gamma-ratio": (
        ["gamma-p", "--prime", "5", "--ratio-check", "1", "--precision", "2"],
        "409c048a4f63e5d25d9e98ec0d845191feeed36450435c4d75679d01b96a0cfd",
    ),
    "verify-gauss": (
        ["verify", "gauss", "--poly", "triangle.json", "--primes", "3", "--bound",
         "9"],
        "4188a2f816b6beb3f92698f01b8f0fe239132330e91a6931078e3a62d2381746",
    ),
    # mirror-map series (exp, reversion) and a non-identity sigma(beta_1) inverse
    "cy-mirror": (
        ["cy", "mirror", "--family", "quintic", "--degree", "6"],
        "24e548c57debdcba180ea8c3cd9e98844c462ae29d8a2105ff56c54f5ddbba91",
    ),
    # q = t + 5 t^4 + ...: the listed coefficients end in a zero
    "cy-mirror-simplicial": (
        ["cy", "mirror", "--family", "simplicial", "--dim", "2", "--degree", "4"],
        "f33113a5813ce83197942f8d7550c811ea04e09831ee85bc6eff574ee2c7d68c",
    ),
    "lambda-steps-2": (
        ["lambda", "--poly", "simplicial.json", "--prime", "5", "--mu", "interior",
         "--steps", "2", "--t-trunc", "9"],
        "adfc028b5e6c4f474234528b99c1f30c236390f4128bec164514409391ad9b68",
    ),
    # --steps 2: sigma = t -> t^5 acts on beta_5, mod t^20
    "lambda-sigma": (
        ["lambda", "--preset", "simplicial", "--dim", "2", "--prime", "5", "--mu",
         "interior", "--steps", "2", "--t-trunc", "20"],
        "37dd5476d6339642188d85217ad288fd6ae2e1d611d3420b52a4a7e101604967",
    ),
    # g in two variable-disjoint parts: the power table convolves the parts
    "verify-dwork-parts": (
        ["verify", "dwork", "--poly", "hyperoctahedral.json", "--primes", "3,5"],
        "03b25957d2475a30ba8572e176b51f8bd13177a8963d244f33427b895f9f153d",
    ),
    # g with free multiplicities: the power table takes products of g
    "verify-dwork-products": (
        ["verify", "dwork", "--poly", "A_n.json", "--primes", "3,5"],
        "7061a22903591d79ada489a699a9264718c2c936c655a811091f8c15d9ec0ce2",
    ),
    "verify-generalized-dwork": (
        ["verify", "generalized-dwork", "--primes", "3,5", "--smax", "2"],
        "1fb6e13c9eb5371bedbb5d058293ad0fcdb9a204ceee6c2e07b5001467771976",
    ),
    # the open subset at a vertex, and an integer (t-free) matrix
    "hw-star": (
        ["hw", "--poly", "star.json", "--prime", "5", "--mu", "star:1,0",
         "--precision", "2"],
        "c0520431b09b42517b7c6a6841660753047f9e79d7b145acc4a71103cff4c0e1",
    ),
}


def write_poly(path, terms, family=False):
    """A polynomial file with `terms` {exponent: coefficient}, as the family
    1 - t*g with g given by them when `family` is set."""
    poly = {"n": 2, "terms": [{"e": list(e), "c": str(c)} for e, c in terms.items()]}
    path.write_text(json.dumps({"form": "1-t*g", "g": poly} if family else poly))
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    return write_poly(tmp_path / "triangle.json", {(0, 0): 1, (1, 0): 1, (0, 1): 1})


@pytest.fixture()
def family_file(tmp_path):
    terms = {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
    return write_poly(tmp_path / "simplicial.json", terms, family=True)


@pytest.fixture()
def hyperoctahedral_file(tmp_path):
    terms = {(-1, 0): 1, (0, -1): 1, (0, 1): 1, (1, 0): 1}
    return write_poly(tmp_path / "hyperoctahedral.json", terms, family=True)


@pytest.fixture()
def a_n_file(tmp_path):
    # (1 + x + y)(1 + 1/x + 1/y), the A_n family at n = 2
    terms = {(-1, 0): 1, (-1, 1): 1, (0, -1): 1, (0, 0): 3, (0, 1): 1, (1, -1): 1, (1, 0): 1}
    return write_poly(tmp_path / "A_n.json", terms, family=True)


@pytest.fixture()
def star_file(tmp_path):
    # x + y + 1/(xy) + 2
    terms = {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): 2}
    return write_poly(tmp_path / "star.json", terms)


def run(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, err = run(capsys, ["hw", "--prime", "5"])
        assert code == 2
        assert "error" in err

    def test_unknown_suite_is_2(self, capsys):
        code, _, _ = run(capsys, ["verify", "nope"])
        assert code == 2

    def test_math_failure_is_1(self, capsys, monkeypatch):
        import dworklab.harness as H
        from dworklab.cartier import constant_term_series as real_cts

        def corrupted(g, T):
            return real_cts(g, T) + TPoly.t_power(3)

        monkeypatch.setattr(H, "constant_term_series", corrupted)
        code, out, _ = run(capsys, ["verify", "dwork", "--primes", "3", "--dims", "2"])
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_missing_file_is_2(self, capsys):
        code, _, _ = run(capsys, ["hw", "--poly", "/nonexistent.json", "--prime", "5"])
        assert code == 2

    def test_malformed_polynomial_json_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"terms": []}')
        code, out, err = run(capsys, ["hw", "--poly", str(path), "--prime", "5"])
        assert code == 2 and not out
        assert '"n"' in err

    @pytest.mark.parametrize(
        "term,needle",
        [({"e": [0, 0]}, '"c"'), ({"e": [0], "c": "1"}, '"e"'), ([0, 0], "object")],
        ids=["no-c", "short-e", "not-object"],
    )
    def test_malformed_polynomial_term_is_2(self, capsys, tmp_path, term, needle):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "terms": [term]}))
        code, out, err = run(capsys, ["hw", "--poly", str(path), "--prime", "5"])
        assert code == 2 and not out
        assert needle in err

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["hw", "--poly", "big.json", "--prime", "5"], "exponent"),
            (["verify", "gauss", "--primes", "3", "--bound", "0"], "bound"),
            (["verify", "gauss", "--primes", "7", "--bound", "5"], '"bound" 5 is below p = 7'),
            (["zeta-count", "--poly", "triangle.json", "--prime", "5", "--ext", "0"],
             "extension degree s must be 1, 2 or 3"),
            (["lambda", "--poly", "simplicial.json", "--prime", "5", "--t-trunc", "0"],
             "t_trunc"),
            (["verify", "asd", "--smax", "0"], '"s_max"'),
            (["verify", "super", "--smax", "0"], '"s_max"'),
            (["cy", "frobenius", "--family", "simplicial", "--dim", "2", "--prime", "5",
              "--steps", "0"], "s = 0"),
            (["cy", "frobenius", "--family", "simplicial", "--dim", "2", "--prime", "5",
              "--steps", "-1"], "s = -1"),
            (["cy", "frobenius", "--family", "hyperoctahedral", "--dim", "3", "--prime", "7"],
             "hyperoctahedral operator shipped for n = 4 only"),
            (["gamma-p", "--prime", "5", "--ratio-check", "0", "--precision", "3"], "s = 0"),
            (["gamma-p", "--prime", "5", "--ratio-check", "-1", "--precision", "3"], "s = -1"),
            (["gamma-p", "--prime", "5", "--precision", "-1"], "N must be >= 1, not -1"),
            (["gamma-p", "--prime", "5", "--x", "1/0"], "1/0 is not an integer or a fraction"),
            (["gamma-p", "--prime", "5", "--x", "1/5"], "must be a p-adic integer"),
            (["cartier", "--poly", "triangle.json", "--prime", "3", "--bound", "-1"],
             "--bound must be >= 0, not -1"),
            (["cartier", "--poly", "triangle.json", "--prime", "5", "--pole", "0"],
             "pole order m must be >= 1, not 0"),
            (["cartier", "--poly", "triangle.json", "--prime", "5", "--pole", "-2"],
             "pole order m must be >= 1, not -2"),
            (["lambda", "--poly", "simplicial.json", "--prime", "5", "--steps", "0"],
             "need s >= 1, not s = 0"),
            (["lambda", "--poly", "simplicial.json", "--prime", "5", "--steps", "-1"],
             "need s >= 1, not s = -1"),
            (["verify", "gauss", "--primes", "3", "--dims", "0"], '"dimensions"'),
            (["verify", "dwork", "--primes", "3", "--dims", "2,0"], '"dimensions"'),
            (["cy", "instanton", "--degree", "-1"], "--degree: must be an integer >= 0, not -1"),
            (["cy", "mirror", "--degree", "-3"], "--degree: must be an integer >= 0, not -3"),
            (["cartier", "--poly", "triangle.json", "--prime", "3", "--bound", str(10**12)],
             f"--bound {10**12} gives a box of more than 10000 indices"),
            (["cartier", "--poly", "triangle.json", "--prime", "3", "--pole", "0",
              "--bound", str(10**12)], f"--bound {10**12} gives a box of more than 10000 indices"),
            (["higher-hw", "--preset", "simplicial", "--dim", "2", "--prime", "5", "--level", "5"],
             "need 1 <= k < p"),
        ],
        ids=["exponent-limit", "gauss-bound-0", "gauss-bound-below-p", "zeta-count-ext-0", "lambda-t-trunc-0",
             "asd-smax-0", "super-smax-0", "cy-frobenius-steps-0", "cy-frobenius-steps--1",
             "cy-frobenius-no-operator",
             "gamma-ratio-s-0", "gamma-ratio-s--1", "gamma-p-precision--1",
             "gamma-p-x-zero-denominator", "gamma-p-x-p-in-denominator",
             "cartier-bound--1", "cartier-pole-0", "cartier-pole--2", "lambda-steps-0",
             "lambda-steps--1", "gauss-dims-0", "dwork-dims-0", "cy-instanton-degree--1",
             "cy-mirror-degree--3", "cartier-bound-past-ceiling", "cartier-bad-pole-past-ceiling",
             "higher-hw-level-at-p"],
    )
    def test_out_of_range_input_is_2(
        self, capsys, monkeypatch, tmp_path, triangle_file, family_file, argv, needle
    ):
        # an exceeded size guard or a bad option value is a usage error, not a
        # verification failure
        (tmp_path / "big.json").write_text(json.dumps(
            {"n": 2, "terms": [{"e": [200000, 0], "c": "1"}, {"e": [0, 0], "c": "1"}]}
        ))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert needle in err

    def test_degree_zero_lists_no_instantons(self, capsys):
        code, out, _ = run(capsys, ["cy", "instanton", "--degree", "0"])
        assert code == 0
        assert json.loads(out) == {"family": "quintic", "instantons": [], "schema": 1,
                                   "yukawa": ["1", "575"]}
        code, out, _ = run(capsys, ["cy", "mirror", "--degree", "0"])
        assert code == 0
        assert json.loads(out)["q_coefficients"] == ["0", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["hw", "--preset", "simplicial", "--prime", "4"],
            ["hw", "--preset", "simplicial", "--prime", "2"],
            ["zeta-count", "--preset", "simplicial", "--prime", "6"],
            ["gamma-p", "--prime", "9"],
            ["cy", "frobenius", "--family", "simplicial", "--dim", "2", "--prime", "4"],
            ["verify", "hhw", "--primes", "5,4"],
        ],
        ids=["hw-4", "hw-2", "zeta-count-6", "gamma-p-9", "cy-frobenius-4", "verify-4"],
    )
    def test_non_prime_is_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert "not an odd prime" in err

    @pytest.mark.parametrize("suite", ["gauss", "hhw", "asd", "dwork"])
    @pytest.mark.parametrize("prime", [9, 4, "5"])
    def test_job_file_non_prime_is_2(self, capsys, tmp_path, suite, prime):
        # a --job file passes the same odd-prime check as --primes
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"primes": [3, prime], "s_max": 1}))
        code, out, err = run(capsys, ["verify", suite, "--job", str(job)])
        assert code == 2 and not out
        assert f"{prime!r} is not an odd prime" in err

    @pytest.mark.parametrize(
        "suite, text, field",
        [
            ("dwork", "[3]", "top level"),
            ("asd", '{"curves": [[1]]}', '"curves"'),
            ("dwork", '{"primes": 5}', '"primes"'),
            ("dwork", '{"s_max": [1]}', '"s_max"'),
            ("gauss", '{"bound": "30"}', '"bound"'),
            ("hhw", '{"seed": 1.5}', '"seed"'),
            ("hhw", '{"polynomials": [3]}', '"polynomials"'),
            ("dwork", '{"families": [3]}', '"families"'),
            ("dwork", '{"dimensions": [2, "3"]}', '"dimensions"'),
            ("dwork", '{"families": [{"form": "1-t*g"}]}', '"g"'),
            ("asd", '{"primes": []}', '"primes"'),
            ("dwork", '{"primes": []}', '"primes"'),
            ("gauss", '{"primes": []}', '"primes"'),
            ("asd", '{"s_max": 0}', '"s_max"'),
            ("gauss", '{"bound": 0}', '"bound"'),
            ("dwork", '{"dimensions": []}', '"dimensions"'),
        ],
        ids=["not-an-object", "short-curve", "primes-not-a-list", "s_max-list",
             "bound-string", "seed-float", "polynomials-entry", "families-entry",
             "dimensions-string", "family-without-g", "asd-no-primes", "dwork-no-primes",
             "gauss-no-primes", "asd-s_max-0", "gauss-bound-0", "dwork-no-dimensions"],
    )
    def test_malformed_job_file_is_2(self, capsys, tmp_path, suite, text, field):
        job = tmp_path / "job.json"
        job.write_text(text)
        code, out, err = run(capsys, ["verify", suite, "--job", str(job)])
        assert code == 2 and not out
        assert field in err

    def test_family_without_g_is_2(self, capsys, tmp_path):
        (tmp_path / "fam.json").write_text(json.dumps({"form": "1-t*g"}))
        code, out, err = run(capsys, ["higher-hw", "--poly", str(tmp_path / "fam.json"),
                                      "--prime", "5"])
        assert code == 2 and not out
        assert '"g"' in err

    @pytest.mark.parametrize("cmd", [["hw"], ["higher-hw", "--level", "2"]])
    def test_family_with_tpoly_g_is_2(self, capsys, tmp_path, cmd):
        g = {"n": 2, "terms": [{"e": [1, 0], "c": "1"}, {"e": [0, 1], "c": {"tpoly": ["0", "1"]}},
                               {"e": [-1, -1], "c": "1"}]}
        (tmp_path / "fam.json").write_text(json.dumps({"form": "1-t*g", "g": g}))
        code, out, err = run(capsys, cmd + ["--poly", str(tmp_path / "fam.json"), "--prime", "5"])
        assert code == 2 and not out
        assert "exponent [0, 1]" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "mu,needle",
        [
            ("star:", "invalid literal for int() with base 10: ''"),
            ("star:a", "invalid literal for int() with base 10: 'a'"),
            ("bogus", "unknown mu selector 'bogus'"),
            ("star:1,2", "(1, 2) is not a vertex"),
        ],
        ids=["star-empty", "star-not-int", "unknown", "star-not-vertex"],
    )
    def test_bad_mu_selector_is_2(self, capsys, triangle_file, mu, needle):
        code, out, err = run(capsys, ["hw", "--poly", triangle_file, "--prime", "5",
                                      "--mu", mu])
        assert code == 2 and not out
        assert needle in err and "Traceback" not in err

    def test_crosscheck_zero_cells_is_2(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["crosscheck", "--poly", triangle_file, "--prime", "5",
                                    "--smax", "0"])
        assert code == 2 and not out

    def test_higher_hw_zero_levels_is_2(self, capsys, family_file):
        code, out, _ = run(capsys, ["higher-hw", "--poly", family_file, "--prime", "5",
                                    "--level", "0"])
        assert code == 2 and not out

    def test_hw_zero_precision_is_2(self, capsys):
        code, out, _ = run(capsys, ["hw", "--preset", "simplicial", "--prime", "5",
                                    "--precision", "0"])
        assert code == 2 and not out

    def test_cartier_zero_precision_is_2(self, capsys, triangle_file):
        # mod p^0 every coefficient agrees, so the oracle would pass vacuously
        code, out, _ = run(capsys, ["cartier", "--poly", triangle_file, "--prime", "3",
                                    "--precision", "0"])
        assert code == 2 and not out

    def test_job_with_poly_is_2(self, capsys, tmp_path, triangle_file):
        # a job file names its own polynomials, so --poly beside it is refused
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"primes": [5], "s_max": 1}))
        code, out, err = run(capsys, ["verify", "hhw", "--job", str(job),
                                      "--poly", str(triangle_file)])
        assert code == 2 and not out
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("flag,value", [("--primes", "3,7"), ("--smax", "2"),
                                            ("--bound", "5"), ("--dims", "2")])
    def test_job_with_grid_flag_is_2(self, capsys, tmp_path, flag, value):
        # the job file sets the grid, so a grid flag beside it is refused by name
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"primes": [5], "s_max": 1}))
        code, out, err = run(capsys, ["verify", "hhw", "--job", str(job), flag, value])
        assert code == 2 and not out
        assert flag in err and "--job" in err

    def test_empty_suite_does_not_pass(self, capsys):
        # zero s levels would be a suite of no cells: rejected before it runs
        code, out, err = run(capsys, ["verify", "hhw", "--primes", "5", "--smax", "0"])
        assert code == 2 and not out
        assert '"s_max"' in err


# One argv per subcommand (and per cy action or gamma-p mode that reads
# another option), every integer option at a small valid value.
SWEEP_BASES = {
    "hw": ["hw", "--preset", "simplicial", "--dim", "2", "--prime", "5", "--precision", "1"],
    "lambda": ["lambda", "--preset", "simplicial", "--dim", "2", "--prime", "5",
               "--steps", "1", "--t-trunc", "9"],
    "higher-hw": ["higher-hw", "--preset", "simplicial", "--dim", "2", "--prime", "5",
                  "--level", "1"],
    "cartier": ["cartier", "--poly", "triangle.json", "--dim", "2", "--prime", "3",
                "--pole", "1", "--precision", "1", "--bound", "1"],
    "zeta-count": ["zeta-count", "--poly", "triangle.json", "--dim", "2", "--prime", "3",
                   "--ext", "1"],
    "crosscheck": ["crosscheck", "--poly", "triangle.json", "--dim", "2", "--prime", "3",
                   "--smax", "1"],
    "verify": ["verify", "dwork", "--primes", "3", "--smax", "1", "--bound", "3",
               "--dims", "2"],
    "cy-frobenius": ["cy", "frobenius", "--family", "simplicial", "--dim", "2",
                     "--degree", "2", "--prime", "5", "--steps", "1"],
    "cy-mirror": ["cy", "mirror", "--family", "simplicial", "--dim", "2", "--degree", "2"],
    "cy-instanton": ["cy", "instanton", "--family", "quintic", "--degree", "2"],
    "gamma-ratio": ["gamma-p", "--prime", "5", "--precision", "1", "--ratio-check", "1"],
    "gamma-p": ["gamma-p", "--x", "1", "--prime", "5", "--precision", "1"],
}


def _integer_slots(argv):
    """Indices of the values of argv's integer options."""
    return [i for i in range(1, len(argv)) if argv[i - 1].startswith("--") and argv[i].isdigit()]


def _integer_option_sweep():
    """(id, argv): one integer option of a SWEEP_BASES argv, or the global
    --seed, at 0 and at -1, the others left at their valid values."""
    for name, base in SWEEP_BASES.items():
        for v in ("0", "-1"):
            yield f"{name}--seed={v}", ["--seed", v] + base
            for i in _integer_slots(base):
                yield f"{name}{base[i - 1]}={v}", base[:i] + [v] + base[i + 1:]


class TestIntegerOptionSweep:
    @pytest.mark.parametrize(
        "argv", [argv for _, argv in _integer_option_sweep()],
        ids=[name for name, _ in _integer_option_sweep()],
    )
    def test_exit_code_without_traceback(self, capsys, monkeypatch, tmp_path,
                                         triangle_file, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    def test_sweep_covers_every_integer_option(self):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        for command, parser in commands.choices.items():
            swept = {base[i - 1] for base in SWEEP_BASES.values() if base[0] == command
                     for i in _integer_slots(base)}
            for action in parser._actions:
                if action.type in (int, _odd_prime):
                    assert action.option_strings[0] in swept, (command, action.option_strings)


class TestCommands:
    def test_hw_preset(self, capsys):
        code, out, _ = run(
            capsys,
            ["hw", "--preset", "simplicial", "--dim", "2", "--prime", "5",
             "--mu", "interior"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["index"] == [[0, 0]]
        assert obj["entries"][0][0] == ["1", "0", "0", "1"]  # 1 + t^3 mod 5

    def test_gauss_verify(self, capsys, triangle_file):
        code, out, _ = run(
            capsys,
            ["verify", "gauss", "--poly", triangle_file, "--primes", "3,5",
             "--bound", "12"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["schema"] == 1

    def test_family_verify(self, capsys, family_file):
        code, out, _ = run(capsys, ["verify", "dwork", "--poly", family_file, "--primes", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["grid"]["families"] == [family_file]
        assert {cell["family"] for cell in report["cells"]} == {family_file}

    def test_lambda_family(self, capsys, family_file):
        code, out, _ = run(
            capsys,
            ["lambda", "--poly", family_file, "--prime", "5", "--mu", "interior",
             "--steps", "1", "--t-trunc", "9"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"][0][0][:4] == ["1", "0", "0", "1"]

    def test_zeta_count(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, ["zeta-count", "--poly", triangle_file, "--prime", "3"]
        )
        assert code == 0
        assert json.loads(out)["torus_points"] == 1

    def test_crosscheck(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, ["crosscheck", "--poly", triangle_file, "--prime", "5",
                     "--smax", "2"]
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_cartier_oracle(self, capsys, triangle_file):
        code, out, _ = run(
            capsys,
            ["cartier", "--poly", triangle_file, "--prime", "3",
             "--precision", "2", "--bound", "2"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["agree"] and obj["checked"] > 0

    def test_cy_instanton(self, capsys):
        code, out, _ = run(capsys, ["cy", "instanton", "--family", "quintic",
                                    "--degree", "4"])
        assert code == 0
        table = json.loads(out)["instantons"]
        assert table[0] == {"d": 1, "Nd_num": "575", "Nd_den": "1"}

    def test_cy_frobenius(self, capsys):
        code, out, _ = run(
            capsys,
            ["cy", "frobenius", "--family", "simplicial", "--dim", "2",
             "--prime", "5"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda0"] == [[1, 0], [0, 5]]

    def test_cy_excellent(self, capsys):
        code, out, _ = run(
            capsys,
            ["cy", "excellent", "--family", "simplicial", "--dim", "2",
             "--prime", "5"],
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_gamma_p(self, capsys):
        code, out, _ = run(capsys, ["gamma-p", "--x", "1", "--prime", "7",
                                    "--precision", "3"])
        assert code == 0
        assert json.loads(out)["value"] == 7**3 - 1

    def test_gamma_ratio(self, capsys):
        code, out, _ = run(
            capsys, ["gamma-p", "--prime", "5", "--ratio-check", "1",
                     "--precision", "2"]
        )
        assert code == 0
        assert json.loads(out)["ratio_congruence"] is True

    def test_higher_hw(self, capsys, family_file):
        code, out, _ = run(
            capsys,
            ["higher-hw", "--poly", family_file, "--prime", "5", "--level", "2",
             "--mu", "whole"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["condition_holds"] is True
        assert obj["levels"]["2"]["L"] == 6

    def test_pretty_format(self, capsys, triangle_file):
        code, out, _ = run(
            capsys,
            ["--format", "pretty", "zeta-count", "--poly", triangle_file,
             "--prime", "3"],
        )
        assert code == 0
        assert "\n" in out.strip()

    @pytest.mark.parametrize(
        "argv,digest", list(GOLDEN.values()), ids=list(GOLDEN)
    )
    def test_byte_identical_output(
        self, capsys, monkeypatch, tmp_path, triangle_file, family_file,
        hyperoctahedral_file, a_n_file, star_file, argv, digest
    ):
        # relative paths: verify reports echo the polynomial file name
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
