import hashlib
import json

import pytest

from dworklab.cli import cli_main


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
}


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "terms": [
                    {"e": [0, 0], "c": "1"},
                    {"e": [1, 0], "c": "1"},
                    {"e": [0, 1], "c": "1"},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture()
def family_file(tmp_path):
    path = tmp_path / "simplicial.json"
    path.write_text(
        json.dumps(
            {
                "form": "1-t*g",
                "g": {
                    "n": 2,
                    "terms": [
                        {"e": [1, 0], "c": "1"},
                        {"e": [0, 1], "c": "1"},
                        {"e": [-1, -1], "c": "1"},
                    ],
                },
            }
        )
    )
    return str(path)


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
        from dworklab.cy import constant_term_series as real_cts

        def corrupted(g, T):
            s = real_cts(g, T)
            s.coeffs[3] += 1
            return s

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

    def test_empty_suite_does_not_pass(self, capsys):
        code, out, _ = run(capsys, ["verify", "hhw", "--primes", "5", "--smax", "0"])
        assert code == 1
        report = json.loads(out)
        assert report["cells"] == [] and report["pass"] is False


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
        self, capsys, monkeypatch, tmp_path, triangle_file, family_file, argv, digest
    ):
        # relative paths: verify reports echo the polynomial file name
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
