import random
import re
from fractions import Fraction

import pytest

from k3lax import (
    BWParams,
    MassOracle,
    MukaiVector,
    QuadNumber,
    SearchBox,
    closed_form_Z,
    companion_classes,
    cross_terms,
    enumerate_spherical,
    eval_Z,
    good_basis,
    in_P_plus,
    omega_from_bw,
    reconstruct,
    residual,
)
from k3lax.errors import (
    DegenerateCharge,
    DomainError,
    ExactSqrtUnavailable,
    InconsistentMasses,
    NoOrientation,
)


@pytest.fixture
def basis1(rho1_d1):
    return good_basis(rho1_d1, SearchBox(8, 8, 40))


def _full_table(lat, basis, oracle):
    table = {cls.v: oracle.query(cls) for cls in basis.vectors}
    for companion in companion_classes(lat, basis).values():
        table[companion.v] = oracle.query(companion)
    return table


class TestCrossTerms:
    def test_worked_values(self):
        assert cross_terms(-3, 1, 1, 10) == 0
        assert cross_terms(1, 1, 1, 4) == 1
        assert cross_terms(-11, Fraction(1), Fraction(4), Fraction(381)) == Fraction(
            -128, 11
        )

    def test_zero_coefficient(self):
        with pytest.raises(ZeroDivisionError):
            cross_terms(0, 1, 1, 1)

    def test_inverts_expansion(self):
        rng = random.Random(59)
        for _ in range(50):
            zi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            zj = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            c = rng.choice([-5, -3, -1, 1, 2, 7])
            m_ij = abs(zj + c * zi) ** 2
            got = cross_terms(c, abs(zi) ** 2, abs(zj) ** 2, m_ij)
            assert got == pytest.approx((zi * zj.conjugate()).real)


class TestOracles:
    def test_table_missing_entry(self, rho1_d1, basis1):
        oracle = MassOracle.from_table({})
        with pytest.raises(InconsistentMasses):
            oracle.query(basis1.vectors[0])

    def test_charge_oracle_values(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        oracle = MassOracle.from_charge(rho1_d1, omega)
        assert oracle.query(basis1.vectors[0]) == Fraction(13, 4)


class TestExactRoundtrip:
    def test_recovers_projective_charge(self, all_lattices):
        rng = random.Random(61)
        for lat in all_lattices:
            basis = good_basis(lat, SearchBox(8, 8, 40))
            probes = enumerate_spherical(lat, SearchBox(2, 2, 6))
            for _ in range(6):
                B = tuple(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(lat.rank)
                )
                alpha = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                omega = omega_from_bw(lat, BWParams(B, alpha))
                oracle = MassOracle.from_charge(lat, omega)
                gauge = oracle.query(basis.vectors[0])
                if gauge.sign() == 0:
                    continue
                rec = reconstruct(lat, basis, oracle)
                assert rec.residual == 0
                assert in_P_plus(lat, rec.omega)
                assert eval_Z(lat, rec.omega, basis.vectors[0]) == 1
                for j, cls in enumerate(basis.vectors):
                    z = eval_Z(lat, rec.omega, cls)
                    assert (z.re, z.im) == rec.coefficients[j]
                # the projective mass profile survives on classes far from
                # the basis, not just on the data that went in
                for cls in probes:
                    z = eval_Z(lat, rec.omega, cls)
                    assert z.norm_square() * gauge == oracle.query(cls)

    def test_idempotent_on_gauged_charge(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        rec = reconstruct(rho1_d1, basis1, MassOracle.from_charge(rho1_d1, omega))
        again = reconstruct(
            rho1_d1, basis1, MassOracle.from_charge(rho1_d1, rec.omega)
        )
        assert again == rec

    def test_gauge_invariance(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(-1, 2),), 2))
        oracle = MassOracle.from_charge(rho1_d1, omega)
        table = _full_table(rho1_d1, basis1, oracle)
        scaled = {k: Fraction(9, 4) * v for k, v in table.items()}
        rec = reconstruct(rho1_d1, basis1, MassOracle.from_table(table))
        rec_scaled = reconstruct(rho1_d1, basis1, MassOracle.from_table(scaled))
        assert rec == rec_scaled

    def test_conjugate_oracle_same_charge(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), 1))
        rec = reconstruct(rho1_d1, basis1, MassOracle.from_charge(rho1_d1, omega))
        rec_conj = reconstruct(
            rho1_d1,
            basis1,
            MassOracle.from_charge(rho1_d1, omega.conjugate()),
        )
        assert rec_conj == rec
        assert in_P_plus(rho1_d1, rec_conj.omega)

    def test_irrational_masses(self, rho1_d2):
        # B = 1/3, alpha = 1/2 + sqrt(2)/3: masses such as 65/36 + (2/9)sqrt(2)
        basis = good_basis(rho1_d2, SearchBox(8, 8, 40))
        B = (Fraction(1, 3),)
        alpha = QuadNumber(Fraction(1, 2), Fraction(1, 3), 2)
        oracle = MassOracle.from_charge(rho1_d2, omega_from_bw(rho1_d2, BWParams(B, alpha)))
        masses = [oracle.query(cls) for cls in basis.vectors]
        assert QuadNumber(Fraction(65, 36), Fraction(2, 9), 2) in masses
        rec = reconstruct(rho1_d2, basis, oracle)
        gauge = closed_form_Z(rho1_d2, B, alpha, basis.vectors[0])
        for cls, coefficient in zip(basis.vectors, rec.coefficients):
            z = closed_form_Z(rho1_d2, B, alpha, cls) / gauge
            assert (z.re, z.im) == coefficient
        assert residual(rho1_d2, basis, oracle, rec) == 0
        assert rec.branch == "conjugate"

    def test_branch_labels(self, rho1_d1, basis1):
        conj = reconstruct(
            rho1_d1,
            basis1,
            MassOracle.from_charge(
                rho1_d1, omega_from_bw(rho1_d1, BWParams((Fraction(0),), Fraction(1, 2)))
            ),
        )
        assert conj.branch == "conjugate"
        prin = reconstruct(
            rho1_d1,
            basis1,
            MassOracle.from_charge(
                rho1_d1, omega_from_bw(rho1_d1, BWParams((Fraction(-3, 2),), 1))
            ),
        )
        assert prin.branch == "principal"
        for rec in (conj, prin):
            assert in_P_plus(rho1_d1, rec.omega)


class TestFloatMode:
    def test_roundtrip_matches_exact(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        oracle = MassOracle.from_charge(rho1_d1, omega)
        exact = reconstruct(rho1_d1, basis1, oracle)
        approx = reconstruct(rho1_d1, basis1, oracle, mode="float")
        assert approx.residual <= 1e-9
        assert approx.branch == exact.branch
        for (a, b), (fa, fb) in zip(exact.coefficients, approx.coefficients):
            assert fa == pytest.approx(float(a), abs=1e-9)
            assert fb == pytest.approx(float(b), abs=1e-9)

    def test_tolerance_rules(self, rho1_d1, basis1):
        oracle = MassOracle.from_table({})
        with pytest.raises(DomainError):
            reconstruct(rho1_d1, basis1, oracle, mode="interval")
        with pytest.raises(DomainError):
            reconstruct(rho1_d1, basis1, oracle, mode="exact", tol=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_float_tolerance_finite_positive(self, rho1_d1, basis1, tol):
        oracle = MassOracle.from_table({})
        with pytest.raises(DomainError):
            reconstruct(rho1_d1, basis1, oracle, mode="float", tol=tol)

    def test_charge_has_complex_components(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        rec = reconstruct(
            rho1_d1, basis1, MassOracle.from_charge(rho1_d1, omega), mode="float"
        )
        parts = (rec.omega.r, *rec.omega.D, rec.omega.s)
        assert all(type(z) is complex for z in parts)
        assert in_P_plus(rho1_d1, rec.omega)
        assert not in_P_plus(rho1_d1, rec.omega.conjugate())


class TestFailureModes:
    def test_massless_gauge(self, rho1_d1, basis1):
        # the boundary charge kills the gauge class exactly
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(0),), 1))
        with pytest.raises(DegenerateCharge):
            reconstruct(rho1_d1, basis1, MassOracle.from_charge(rho1_d1, omega))

    def test_real_charge_data(self, rho1_d1, basis1):
        # masses of the real tuple (1, 2, 3): every b_j^2 comes out zero
        v = [cls.v for cls in basis1.vectors]
        comp = companion_classes(rho1_d1, basis1)
        table = {
            v[0]: Fraction(1),
            v[1]: Fraction(4),
            v[2]: Fraction(9),
            comp[(0, 1)].v: Fraction(1),
            comp[(0, 2)].v: Fraction(9),
            comp[(1, 2)].v: Fraction(361),
        }
        with pytest.raises(DegenerateCharge):
            reconstruct(rho1_d1, basis1, MassOracle.from_table(table))

    def test_negative_mass(self, rho1_d1, basis1):
        table = {cls.v: Fraction(1) for cls in basis1.vectors}
        table[basis1.vectors[1].v] = Fraction(-1)
        with pytest.raises(InconsistentMasses):
            reconstruct(rho1_d1, basis1, MassOracle.from_table(table))

    def test_negative_b_squared(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        table = _full_table(
            rho1_d1, basis1, MassOracle.from_charge(rho1_d1, omega)
        )
        table[basis1.vectors[1].v] = Fraction(1, 100) * table[basis1.vectors[0].v]
        with pytest.raises(InconsistentMasses):
            reconstruct(rho1_d1, basis1, MassOracle.from_table(table))

    def test_perturbed_cross_mass(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        table = _full_table(
            rho1_d1, basis1, MassOracle.from_charge(rho1_d1, omega)
        )
        key = companion_classes(rho1_d1, basis1)[(1, 2)].v
        table[key] = table[key] + Fraction(1, 1000)
        with pytest.raises(InconsistentMasses):
            reconstruct(rho1_d1, basis1, MassOracle.from_table(table))

    def _sqrt3_table(self, basis):
        # masses of (1, 1 + sqrt(3) i, 2 + sqrt(3) i): consistent data
        # whose pivot root falls outside the rational field
        v = [cls.v for cls in basis.vectors]
        comp_keys = {
            (0, 1): Fraction(7),
            (0, 2): Fraction(19),
            (1, 2): Fraction(381),
        }
        table = {v[0]: Fraction(1), v[1]: Fraction(4), v[2]: Fraction(7)}
        return table, comp_keys

    def test_irrational_pivot(self, rho1_d1, basis1):
        table, comp_values = self._sqrt3_table(basis1)
        comp = companion_classes(rho1_d1, basis1)
        for key, value in comp_values.items():
            table[comp[key].v] = value
        oracle = MassOracle.from_table(table)
        with pytest.raises(ExactSqrtUnavailable):
            reconstruct(rho1_d1, basis1, oracle)
        # the same data is fine numerically but belongs to no oriented
        # positive plane, so float mode refuses it too, later
        with pytest.raises(NoOrientation):
            reconstruct(rho1_d1, basis1, oracle, mode="float")


def _entries(lat, basis):
    return [cls.v for cls in basis.vectors] + [
        cls.v for cls in companion_classes(lat, basis).values()
    ]


class TestNonFiniteMasses:
    """A NaN or infinite mass in any table entry, gauge or not, is
    inconsistent data naming its class, in every mode and in residual."""

    @pytest.fixture
    def charge_table(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        return _full_table(rho1_d1, basis1, MassOracle.from_charge(rho1_d1, omega))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("entry", range(6))
    def test_float_reconstruct(self, rho1_d1, basis1, charge_table, entry, bad):
        key = _entries(rho1_d1, basis1)[entry]
        table = {k: float(m.a) for k, m in charge_table.items()}
        table[key] = bad
        with pytest.raises(InconsistentMasses, match=re.escape(str(key))):
            reconstruct(rho1_d1, basis1, MassOracle.from_table(table), mode="float")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", range(6))
    def test_exact_reconstruct(self, rho1_d1, basis1, charge_table, entry, bad):
        key = _entries(rho1_d1, basis1)[entry]
        table = dict(charge_table)
        table[key] = bad
        with pytest.raises(InconsistentMasses, match=re.escape(str(key))):
            reconstruct(rho1_d1, basis1, MassOracle.from_table(table))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("entry", range(6))
    def test_residual(self, rho1_d1, basis1, charge_table, entry, mode):
        rec = reconstruct(
            rho1_d1, basis1, MassOracle.from_table(charge_table), mode=mode
        )
        key = _entries(rho1_d1, basis1)[entry]
        table = {k: float(m.a) for k, m in charge_table.items()}
        table[key] = float("nan")
        with pytest.raises(InconsistentMasses, match=re.escape(str(key))):
            residual(rho1_d1, basis1, MassOracle.from_table(table), rec)


class TestMassesBeyondDoubles:
    """A mass too large for a double is inconsistent data naming its
    class in float mode, on a basis entry (0) and a companion entry (4)."""

    @pytest.fixture
    def charge_table(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        table = _full_table(rho1_d1, basis1, MassOracle.from_charge(rho1_d1, omega))
        return {k: float(m.a) for k, m in table.items()}

    @pytest.mark.parametrize("huge", [Fraction(10**400), 10**400], ids=["fraction", "int"])
    @pytest.mark.parametrize("entry", [0, 4])
    def test_float_reconstruct(self, rho1_d1, basis1, charge_table, entry, huge):
        key = _entries(rho1_d1, basis1)[entry]
        charge_table[key] = huge
        with pytest.raises(InconsistentMasses, match=re.escape(str(key))):
            reconstruct(rho1_d1, basis1, MassOracle.from_table(charge_table), mode="float")

    @pytest.mark.parametrize("huge", [Fraction(10**400), 10**400], ids=["fraction", "int"])
    @pytest.mark.parametrize("entry", [0, 4])
    def test_residual(self, rho1_d1, basis1, charge_table, entry, huge):
        rec = reconstruct(rho1_d1, basis1, MassOracle.from_table(charge_table), mode="float")
        key = _entries(rho1_d1, basis1)[entry]
        charge_table[key] = huge
        with pytest.raises(InconsistentMasses, match=re.escape(str(key))):
            residual(rho1_d1, basis1, MassOracle.from_table(charge_table), rec)


class TestFractionBudget:
    """Exact reconstruction runs on the integers of QuadNumber: one
    reconstruct plus residual builds at most a quarter of the Fractions
    it built when QuadNumber held a pair of Fractions (2272, 2272 and
    3613 at B = (-2/3, ...), alpha = 5/2)."""

    BUDGET = {"rho1-d1": 568, "rho1-d2": 568, "rho2-d1": 903}

    @pytest.mark.parametrize("lattice", ["rho1_d1", "rho1_d2", "rho2_d1"])
    def test_reconstruct_and_residual(self, request, monkeypatch, lattice):
        lat = request.getfixturevalue(lattice)
        basis = good_basis(lat, SearchBox(8, 8, 40))
        B = (Fraction(-2, 3),) * lat.rank
        oracle = MassOracle.from_charge(lat, omega_from_bw(lat, BWParams(B, Fraction(5, 2))))
        built = 0
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        rec = reconstruct(lat, basis, oracle)
        left = residual(lat, basis, oracle, rec)
        monkeypatch.undo()
        assert left == 0
        assert built <= self.BUDGET[lat.name], f"{built} Fractions built"


class TestResidualProbe:
    def test_zero_on_clean_data(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        oracle = MassOracle.from_charge(rho1_d1, omega)
        rec = reconstruct(rho1_d1, basis1, oracle)
        assert residual(rho1_d1, basis1, oracle, rec) == 0

    def test_detects_perturbation(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        oracle = MassOracle.from_charge(rho1_d1, omega)
        rec = reconstruct(rho1_d1, basis1, oracle)
        table = _full_table(rho1_d1, basis1, oracle)
        key = companion_classes(rho1_d1, basis1)[(1, 2)].v
        table[key] = table[key] + Fraction(1, 1000)
        # the bump of 1/1000 lands in one cross term, scaled by the gauge
        # mass 13/4 and the pairing coefficient -11
        got = residual(rho1_d1, basis1, MassOracle.from_table(table), rec)
        assert got == Fraction(1, 71500)

    def test_float_probe(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        oracle = MassOracle.from_charge(rho1_d1, omega)
        rec = reconstruct(rho1_d1, basis1, oracle, mode="float")
        assert residual(rho1_d1, basis1, oracle, rec) <= 1e-9

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_invalid_probe_masses(self, rho1_d1, basis1, mode):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        oracle = MassOracle.from_charge(rho1_d1, omega)
        rec = reconstruct(rho1_d1, basis1, oracle, mode=mode)
        table = _full_table(rho1_d1, basis1, oracle)
        negative = dict(table)
        negative[basis1.vectors[1].v] = Fraction(-1)
        with pytest.raises(InconsistentMasses):
            residual(rho1_d1, basis1, MassOracle.from_table(negative), rec)
        massless = dict(table)
        massless[basis1.vectors[0].v] = Fraction(0)
        with pytest.raises(DegenerateCharge):
            residual(rho1_d1, basis1, MassOracle.from_table(massless), rec)

    def test_degenerate_gauge(self, rho1_d1, basis1):
        omega = omega_from_bw(rho1_d1, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        oracle = MassOracle.from_charge(rho1_d1, omega)
        rec = reconstruct(rho1_d1, basis1, oracle)
        boundary = omega_from_bw(rho1_d1, BWParams((Fraction(0),), 1))
        with pytest.raises(DegenerateCharge):
            residual(
                rho1_d1, basis1, MassOracle.from_charge(rho1_d1, boundary), rec
            )
