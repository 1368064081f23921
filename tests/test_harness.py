import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dworklab.harness as H
from dworklab.arith import TPoly, val_p
from dworklab.cartier import expand_vertex, vertex_budget
from dworklab.laurent import LaurentPoly
from dworklab.polytope import newton_polytope
from dworklab.harness import (
    GaussHypothesisError,
    JobSpec,
    _gauss_cell,
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

    @pytest.mark.parametrize("dims", [(0,), (2, 0), (3, -1)])
    def test_rejects_dimension_below_one(self, dims):
        # the one grid check covers every dimension, also in a --job file
        for make in (lambda: JobSpec(dimensions=dims),
                     lambda: JobSpec.from_json({"dimensions": list(dims)})):
            with pytest.raises(ValueError, match='"dimensions" must be >= 1'):
                make()


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


GAUSS_SHAPES = (
    ((0, 0), (1, 0), (0, 1)),
    ((0, 0), (1, 0), (0, 1), (1, 1)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0,), (1,)),
)


def gauss_reference(f, b, p, bound):
    """The Gauss cell by the full-box scan: every index of [-bound, bound]^n,
    under the budget that certifies all of them complete."""
    n = f.n
    max_ord = 1
    while p ** (max_ord + 1) <= bound:
        max_ord += 1
    N = max_ord + 2
    one = LaurentPoly.constant(n, 1)
    box = list(itertools.product(range(-bound, bound + 1), repeat=n))
    E = expand_vertex(one, f, 1, b, vertex_budget(f, b, 1, one, box), p**N)
    checked = 0
    failures = []
    for v in box:
        if not any(v):
            continue
        ord_v = val_p(math.gcd(*v), p)
        u = tuple(x // p for x in v)
        if ord_v < 1 or not (E.is_complete(v) and E.is_complete(u)):
            continue
        checked += 1
        c1, c2 = E.coefficient(v), E.coefficient(u)
        if (c1 - c2) % p**ord_v:
            failures.append(
                {"v": list(v), "c_v": c1, "c_v_over_p": c2, "mod": f"{p}^{ord_v}"}
            )
    return checked, failures


class TestGaussCell:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_full_box_scan(self, data):
        shape = data.draw(st.sampled_from(GAUSS_SHAPES))
        p = data.draw(st.sampled_from((3, 5, 7, 11)))
        bound = data.draw(st.integers(1, 14))
        units = st.integers(-30, 30).filter(lambda c: c % p)
        f = LaurentPoly(len(shape[0]), {e: data.draw(units) for e in shape})
        P = newton_polytope(f.support())
        b = data.draw(st.sampled_from(P.vertices))
        cell = _gauss_cell("f", f, P, b, p, bound)
        checked, failures = gauss_reference(f, b, p, bound)
        assert cell["checked"] == checked
        assert cell["status"] == ("ok" if checked and not failures else "fail")
        if checked:
            assert cell.get("witness") == (failures[:5] or None)
        else:
            assert cell["witness"] == [{"reason": "no certified indices inside the bound"}]
        if p > bound:
            assert checked == 0 and cell["status"] == "fail"

    @pytest.mark.parametrize("bound, N", [(242, 6), (243, 7), (728, 7), (729, 8)])
    def test_precision_is_an_exact_floor_log(self, monkeypatch, bound, N):
        # N = max(1, floor(log_3 bound)) + 2; a floating-point log misrounds
        # log_3 243 to 4.999...
        moduli = []

        def recording(h, f, m, b, budget, modulus=None, **kw):
            moduli.append(modulus)
            return expand_vertex(h, f, m, b, budget, modulus, **kw)

        monkeypatch.setattr(H, "expand_vertex", recording)
        f = LaurentPoly(1, {(0,): 1, (1,): 1})
        cell = _gauss_cell("1+x", f, newton_polytope(f.support()), (0,), 3, bound)
        assert moduli == [3**N]
        assert cell["status"] == "ok"


class TestFailurePaths:
    def test_gauss_hypothesis_violation(self):
        bad = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (-1, -1): 1})
        with pytest.raises(GaussHypothesisError):
            suite_gauss(JobSpec(primes=(3,), polynomials=(("bad", bad),)))

    def test_gauss_p_divides_coefficient(self):
        bad = LaurentPoly(2, {(0, 0): 3, (1, 0): 1, (0, 1): 1})
        with pytest.raises(GaussHypothesisError):
            suite_gauss(JobSpec(primes=(3,), polynomials=(("bad", bad),)))

    def test_corrupted_gauss_fails(self, monkeypatch):
        # the checks of v = (-3, 0) (mod 3) and v = (-9, 0) (mod 9) fail,
        # reported in lexicographic order of v
        plant_gauss_fault(monkeypatch)
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        report = suite_gauss(JobSpec(primes=(3,), bound=9, polynomials=(("f", f),)))
        assert not report.passed
        bad = [c for c in report.cells if c["status"] == "fail"]
        assert [c["vertex"] for c in bad] == [[1, 0]]
        witness = [(w["v"], w["c_v"], w["c_v_over_p"], w["mod"]) for w in bad[0]["witness"]]
        assert witness == [([-9, 0], 1, 2, "3^2"), ([-3, 0], 2, 1, "3^1")]

    def test_corrupted_dwork_fails(self, monkeypatch):
        plant_dwork_fault(monkeypatch)
        report = suite_dwork(JobSpec(primes=(3,), dimensions=(2,)))
        assert not report.passed
        bad = [c for c in report.cells if c["status"] == "fail"]
        assert bad and "witness" in bad[0]

    def test_corrupted_asd_fails(self, monkeypatch):
        plant_asd_fault(monkeypatch)
        report = suite_asd(JobSpec(primes=(5,), s_max=2, curves=((-1, 0),)))
        assert not report.passed

    def test_corrupted_hhw_fails(self, monkeypatch):
        # the second congruence reads beta_{p^2} through lambda_unit_root
        import dworklab.hasse_witt as HW
        from dworklab.hasse_witt import beta_matrix as real_beta

        def corrupted(f, mu, m, p, N):
            M = real_beta(f, mu, m, p, N)
            if m == p**2:
                M.entries[0][0] = (M.entries[0][0] + p) % p**N if N > 1 else M.entries[0][0]
            return M

        monkeypatch.setattr(H, "beta_matrix", corrupted)
        monkeypatch.setattr(HW, "beta_matrix", corrupted)
        report = suite_hhw(JobSpec(primes=(5,), s_max=2))
        assert not report.passed

    def test_corrupted_super_fails(self, monkeypatch):
        plant_super_fault(monkeypatch)
        report = suite_super(JobSpec(primes=(3,), s_max=1))
        assert not report.passed


def plant_gauss_fault(monkeypatch):
    """Bump c_(-3,0) by one in every vertex expansion at the vertex (1, 0)."""
    real = H.expand_vertex

    def corrupted(h, f, m, b, budget, modulus=None, **kw):
        E = real(h, f, m, b, budget, modulus, **kw)
        if tuple(b) == (1, 0):
            E.coeffs[(-3, 0)] = (E.coefficient((-3, 0)) + 1) % modulus
        return E

    monkeypatch.setattr(H, "expand_vertex", corrupted)


def plant_dwork_fault(monkeypatch):
    """Bump the t^3 coefficient of every constant-term series."""
    real = H.constant_term_series
    monkeypatch.setattr(H, "constant_term_series", lambda g, T: real(g, T) + TPoly.t_power(3))


def plant_asd_fault(monkeypatch):
    """Bump every expansion coefficient alpha_25 by one."""
    real = H.asd_alpha

    def corrupted(A, B, m, modulus=None):
        return real(A, B, m, modulus) + (1 if m == 25 else 0)

    monkeypatch.setattr(H, "asd_alpha", corrupted)


def plant_super_fault(monkeypatch):
    """Add 3t to the coefficient c_(3,3)(t) of the supercongruence family."""
    real = H.expansion_coefficient_super

    def corrupted(u, modulus=None):
        out = real(u, modulus)
        return out + TPoly([0, 3]) if u == (3, 3) else out

    monkeypatch.setattr(H, "expansion_coefficient_super", corrupted)


# suite -> (plant, verify flags whose grid the plant reaches)
PLANTED_FAULTS = {
    "asd": (plant_asd_fault, ["--primes", "5", "--smax", "2"]),
    "gauss": (plant_gauss_fault, ["--primes", "3", "--bound", "9"]),
    "dwork": (plant_dwork_fault, ["--primes", "3", "--dims", "2"]),
    "super": (plant_super_fault, ["--primes", "3", "--smax", "1"]),
}


@pytest.mark.parametrize("suite", sorted(PLANTED_FAULTS))
def test_planted_fault_exits_1(monkeypatch, capsys, suite):
    from dworklab.cli import cli_main

    plant, flags = PLANTED_FAULTS[suite]
    argv = ["verify", suite, *flags]
    assert cli_main(argv) == 0
    plant(monkeypatch)
    assert cli_main(argv) == 1
    capsys.readouterr()


def plant_ladder_fault(monkeypatch, k, e):
    """Make every unit-root ladder the suites read that reaches level k put
    Lambda_k[0][0] off by p^e.  With e = k - 1 the change survives reduction
    mod p^k and no further."""
    real = H.lambda_unit_root

    def planted(f, mu, p, sigma, s, t_trunc=None):
        ladder = real(f, mu, p, sigma, s, t_trunc)
        if len(ladder) >= k:
            lam = ladder[k - 1]
            lam.entries[0][0] = (lam.entries[0][0] + p**e) % p**k
        return ladder

    monkeypatch.setattr(H, "lambda_unit_root", planted)


class TestBetaLadder:
    @pytest.fixture
    def beta_calls(self, monkeypatch):
        import dworklab.hasse_witt as HW

        calls = []
        real = HW.beta_matrix

        def counting(f, mu, m, p, N):
            calls.append(m)
            return real(f, mu, m, p, N)

        monkeypatch.setattr(H, "beta_matrix", counting)
        monkeypatch.setattr(HW, "beta_matrix", counting)
        return calls

    def test_hhw_builds_one_ladder_per_cell_triple(self, beta_calls):
        # 18 (f, mu, p): one ladder of at most 3 betas and one list of the
        # beta_{p^s} mod p, s <= 2, each; a supersingular ladder stops at beta_p
        report = suite_hhw(JobSpec())
        assert report.passed and len(report.cells) == 36
        assert len(beta_calls) <= 78

    def test_generalized_dwork_builds_each_beta_once(self, beta_calls):
        report = suite_generalized_dwork(JobSpec())
        assert report.passed
        # 9 (f, p): one ladder of at most 3 betas and one table of the betas
        # m p^k, m <= 3, each
        assert len(beta_calls) <= 71

    def test_unit_multiplier_cells_read_the_next_level(self, monkeypatch):
        # the m = 1 cells compare beta_{p^s} with Lambda_{s+1} mod p^s: a
        # change of the level above s_max fails them, and only them
        s_max = JobSpec().s_max
        plant_ladder_fault(monkeypatch, s_max + 1, 0)
        report = suite_generalized_dwork(JobSpec())
        assert not report.passed
        bad = [c for c in report.cells if c["status"] == "fail"]
        assert bad and {(c["m"], c["s"]) for c in bad} == {(1, s_max)}

    @pytest.mark.parametrize("suite", [suite_hhw, suite_generalized_dwork])
    def test_planted_ladder_fault_fails_a_cell(self, monkeypatch, suite):
        plant_ladder_fault(monkeypatch, JobSpec().s_max, JobSpec().s_max - 1)
        report = suite(JobSpec())
        assert not report.passed
        assert any(c["status"] == "fail" for c in report.cells)

    @pytest.mark.parametrize("suite", ["hhw", "generalized-dwork"])
    def test_planted_ladder_fault_exits_1(self, monkeypatch, capsys, suite):
        from dworklab.cli import cli_main

        assert cli_main(["verify", suite]) == 0
        plant_ladder_fault(monkeypatch, JobSpec().s_max, JobSpec().s_max - 1)
        assert cli_main(["verify", suite]) == 1
        capsys.readouterr()


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
