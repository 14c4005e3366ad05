import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpinn.irk import MAX_STAGES, ButcherTableau, gauss_legendre_tableau, verify_order_conditions
import irk_oracle


def irk_exponential_step(tableau, dt):
    """One implicit step of u' = -u from u0 = 1 (direct stage solve)."""
    q = tableau.q
    k = np.linalg.solve(np.eye(q) + dt * tableau.a, -np.ones(q))
    return 1.0 + dt * tableau.b @ k


class TestTableaus:
    def test_q1_is_implicit_midpoint(self):
        t = gauss_legendre_tableau(1)
        assert t.c == pytest.approx([0.5], abs=1e-15)
        assert t.b == pytest.approx([1.0], abs=1e-15)
        assert np.allclose(t.a, [[0.5]], atol=1e-15)

    def test_q2_closed_form(self):
        t = gauss_legendre_tableau(2)
        r = math.sqrt(3) / 6
        assert t.c == pytest.approx([0.5 - r, 0.5 + r], abs=1e-14)
        assert t.b == pytest.approx([0.5, 0.5], abs=1e-14)
        assert np.allclose(t.a, [[0.25, 0.25 - r], [0.25 + r, 0.25]], atol=1e-14)

    @pytest.mark.parametrize("q", [1, 2, 4, 10, 50])
    def test_structural_invariants(self, q):
        t = gauss_legendre_tableau(q)
        assert abs(t.b.sum() - 1.0) < 1e-12
        assert np.max(np.abs(t.a.sum(axis=1) - t.c)) < 1e-12
        assert np.all(np.diff(t.c) > 0)
        assert t.c[0] > 0 and t.c[-1] < 1
        # Gauss nodes and weights are symmetric about 1/2
        assert np.max(np.abs(t.c + t.c[::-1] - 1.0)) < 1e-12
        assert np.max(np.abs(t.b - t.b[::-1])) < 1e-12

    @pytest.mark.parametrize("q", [2, 4, 10, 50])
    def test_stage_order_systems(self, q):
        # sum_j a_ij c_j^(k-1) = c_i^k / k for k = 1..q
        t = gauss_legendre_tableau(q)
        worst = max(
            np.max(np.abs(t.a @ t.c ** (k - 1) - t.c**k / k)) for k in range(1, q + 1)
        )
        assert worst < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(q=st.integers(1, 100))
    def test_any_stage_count_is_a_gauss_tableau(self, q):
        t = gauss_legendre_tableau(q)
        assert abs(t.b.sum() - 1.0) < 1e-13
        assert np.max(np.abs(t.a.sum(axis=1) - t.c)) < 1e-13
        assert np.max(np.abs(t.c + t.c[::-1] - 1.0)) < 1e-13
        assert np.max(np.abs(t.b - t.b[::-1])) < 1e-13
        stage_order = max(
            np.max(np.abs(t.a @ t.c ** (k - 1) - t.c**k / k)) for k in range(1, q + 1)
        )
        assert stage_order < 1e-13
        assert verify_order_conditions(t, 2 * q).max() < 1e-13

    def test_matches_the_stage_by_stage_construction_bit_for_bit(self):
        # every stage count the package admits; a divide warning is an error here
        for q in range(1, MAX_STAGES + 1):
            got, want = gauss_legendre_tableau(q), irk_oracle.gauss_legendre_tableau(q)
            for field in ("a", "b", "c"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (q, field)

    def test_no_rule_point_hits_a_node(self):
        # the barycentric form divides by c_i c_m - c_j; the oracle's unit-vector
        # branch took over below 1e-14, and the package has no such branch
        gaps = []
        for q in range(1, MAX_STAGES + 1):
            c = gauss_legendre_tableau(q).c
            gaps.append(np.abs((c[:, None] * c)[:, :, None] - c).min())
        assert min(gaps) > 1e-9  # 5.8e-9, at q = 85

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_legendre_tableau(0)
        with pytest.raises(ValueError):
            gauss_legendre_tableau(101)
        with pytest.raises(ValueError):
            gauss_legendre_tableau(2.5)


class TestOrderConditions:
    def test_q1_second_moment(self):
        t = gauss_legendre_tableau(1)
        assert verify_order_conditions(t, 2)[1] == 0.0

    def test_q2_fourth_moment(self):
        t = gauss_legendre_tableau(2)
        assert verify_order_conditions(t, 4)[3] < 1e-12

    def test_q10_to_order_twenty(self):
        t = gauss_legendre_tableau(10)
        assert verify_order_conditions(t, 20).max() < 1e-9

    def test_q50_to_order_hundred(self):
        t = gauss_legendre_tableau(50)
        assert verify_order_conditions(t, 100).max() < 1e-6

    def test_moment_beyond_exactness_degree_fails(self):
        # k = 2q+1 is the first condition Gauss quadrature cannot satisfy
        t = gauss_legendre_tableau(2)
        assert verify_order_conditions(t, 5)[4] > 1e-6


class TestExponentialDecay:
    @pytest.mark.parametrize("q", [4, 5, 6, 10])
    def test_high_stage_counts_hit_exponential(self, q):
        t = gauss_legendre_tableau(q)
        err = abs(irk_exponential_step(t, 0.5) - math.exp(-0.5))
        assert err < 1e-10

    def test_q3_padde_error_level(self):
        # the (3,3) Pade error of exp at z=0.5 is ~4.7e-8, not 1e-10
        t = gauss_legendre_tableau(3)
        err = abs(irk_exponential_step(t, 0.5) - math.exp(-0.5))
        assert 1e-9 < err < 1e-7
