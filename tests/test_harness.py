import json

import pytest

from dworklab.arith import TPoly
from dworklab.laurent import LaurentPoly
from dworklab.harness import (
    GaussHypothesisError,
    JobSpec,
    canonical_json,
    expansion_coefficient_super,
    suite_asd,
    suite_dwork,
    suite_gauss,
    suite_generalized_dwork,
    suite_hhw,
    suite_super,
)

FAST_HHW = JobSpec(primes=(5,), s_max=1)


class TestJobSpec:
    def test_from_json(self):
        spec = JobSpec.from_json(
            json.dumps(
                {
                    "primes": [3, 5],
                    "s_max": 1,
                    "seed": 7,
                    "polynomials": [
                        {
                            "label": "line",
                            "n": 1,
                            "terms": [{"e": [1], "c": "1"}, {"e": [0], "c": "1"}],
                        }
                    ],
                    "families": [
                        {
                            "form": "1-t*g",
                            "g": {"n": 1, "terms": [{"e": [1], "c": "1"}]},
                        }
                    ],
                    "curves": [[-1, 0]],
                }
            )
        )
        assert spec.primes == (3, 5)
        assert spec.seed == 7
        assert spec.polynomials[0][1] == LaurentPoly(1, {(1,): 1, (0,): 1})
        assert spec.families[0][1] == LaurentPoly(1, {(1,): 1})
        assert spec.curves == ((-1, 0),)


class TestSuitePasses:
    def test_hhw_small(self):
        report = suite_hhw(FAST_HHW)
        assert report.passed
        skips = [c for c in report.cells if c.get("status") == "skip"]
        # the c0=0 member is supersingular at 5; skipped cells do not fail
        assert skips and all(c["first_congruence"] for c in skips)

    def test_asd_small(self):
        report = suite_asd(JobSpec(primes=(5, 7), s_max=2, curves=((-1, 0),)))
        assert report.passed
        cell = report.cells[0]
        assert cell["a_p"] == -2
        assert cell["lambda"] == 113  # mod 5^3

    def test_gauss_small(self):
        report = suite_gauss(JobSpec(primes=(3,), bound=12))
        assert report.passed
        assert all(c["checked"] > 0 for c in report.cells)

    def test_dwork_small(self):
        report = suite_dwork(JobSpec(primes=(3,), dimensions=(2,)))
        assert report.passed

    def test_super_small(self):
        report = suite_super(JobSpec(primes=(3,), s_max=1))
        assert report.passed

    def test_generalized_dwork_small(self):
        report = suite_generalized_dwork(JobSpec(primes=(5,), s_max=1))
        assert report.passed


class TestSuperFamilyOracle:
    def test_closed_form(self):
        import math

        for u in ((1, 1), (2, 3), (3, 3)):
            got = expansion_coefficient_super(u)
            expect = TPoly(
                [math.comb(u[0], m) * math.comb(u[1], m) for m in range(min(u) + 1)]
            )
            assert got == expect

    def test_difference_example(self):
        # c_(3,3)(t) - c_(1,1)(t^3) = 9t + 9t^2, zero mod 9
        c33 = expansion_coefficient_super((3, 3))
        c11 = expansion_coefficient_super((1, 1))
        diff = c33 - c11.subs_t_power(3)
        assert diff == TPoly([0, 9, 9])

    def test_binomial_instance(self):
        import math

        assert (math.comb(18, 9) - math.comb(6, 3)) % 81 == 0


class TestFailurePaths:
    def test_gauss_hypothesis_violation(self):
        bad = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (-1, -1): 1})
        with pytest.raises(GaussHypothesisError):
            suite_gauss(JobSpec(primes=(3,), polynomials=(("bad", bad),)))

    def test_gauss_p_divides_coefficient(self):
        bad = LaurentPoly(2, {(0, 0): 3, (1, 0): 1, (0, 1): 1})
        with pytest.raises(GaussHypothesisError):
            suite_gauss(JobSpec(primes=(3,), polynomials=(("bad", bad),)))

    def test_corrupted_dwork_fails(self, monkeypatch):
        import dworklab.harness as H
        from dworklab.cy import constant_term_series as real_cts

        def corrupted(g, T):
            s = real_cts(g, T)
            s.coeffs[3] += 1  # mutate one integer coefficient
            return s

        monkeypatch.setattr(H, "constant_term_series", corrupted)
        report = suite_dwork(JobSpec(primes=(3,), dimensions=(2,)))
        assert not report.passed
        bad = [c for c in report.cells if c["status"] == "fail"]
        assert bad and "witness" in bad[0]

    def test_corrupted_asd_fails(self, monkeypatch):
        import dworklab.harness as H
        from dworklab.zeta import asd_alpha as real_alpha

        def corrupted(A, B, m, modulus=None):
            out = real_alpha(A, B, m, modulus)
            return out + (1 if m == 25 else 0)

        monkeypatch.setattr(H, "asd_alpha", corrupted)
        report = suite_asd(JobSpec(primes=(5,), s_max=2, curves=((-1, 0),)))
        assert not report.passed

    def test_corrupted_hhw_fails(self, monkeypatch):
        import dworklab.harness as H
        from dworklab.hasse_witt import beta_matrix as real_beta

        def corrupted(f, mu, m, p, N):
            M = real_beta(f, mu, m, p, N)
            if m == p**2:
                M.entries[0][0] = (M.entries[0][0] + p) % p**N if N > 1 else M.entries[0][0]
            return M

        monkeypatch.setattr(H, "beta_matrix", corrupted)
        report = suite_hhw(JobSpec(primes=(5,), s_max=2))
        assert not report.passed

    def test_corrupted_super_fails(self, monkeypatch):
        import dworklab.harness as H
        from dworklab.harness import expansion_coefficient_super as real_super

        def corrupted(u, T=None, modulus=None):
            out = real_super(u, T, modulus)
            return out + TPoly([0, 3]) if u == (3, 3) else out

        monkeypatch.setattr(H, "expansion_coefficient_super", corrupted)
        report = suite_super(JobSpec(primes=(3,), s_max=1))
        assert not report.passed


class TestDeterminism:
    def test_byte_identical_reports(self):
        a = suite_dwork(JobSpec(primes=(3,), dimensions=(2,)))
        b = suite_dwork(JobSpec(primes=(3,), dimensions=(2,)))
        assert canonical_json(a.to_json()) == canonical_json(b.to_json())

    def test_timing_excluded_by_default(self):
        report = suite_dwork(JobSpec(primes=(3,), dimensions=(2,)))
        assert "elapsed_s" not in report.to_json()
        assert "elapsed_s" in report.to_json(include_timing=True)

    def test_schema_version(self):
        report = suite_dwork(JobSpec(primes=(3,), dimensions=(2,)))
        assert report.to_json()["schema"] == 1
