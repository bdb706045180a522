import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice import (
    BoundReport,
    DomainError,
    ResourceLimitError,
    UnsupportedParametersError,
    ZsigmondyException,
    alt_sum,
    capital_N,
    ceil_log,
    g_of,
    h_of,
    is_prime,
    multiplicative_order,
    prime_power,
    primorial_prime_set,
    qbinom,
    require_zsigmondy_prime,
    trial_factor,
    zsigmondy_exception,
    zsigmondy_prime,
)
from qlattice.qcombin import QBINOM_MAX_BITS, has_order


@lru_cache(maxsize=None)
def _qbinom_pascal(n, k, q):
    """Oracle: Pascal's rule [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return _qbinom_pascal(n - 1, k - 1, q) + q ** k * _qbinom_pascal(n - 1, k, q)


class TestQbinom:
    def test_known_values(self):
        assert qbinom(4, 2, 2) == 35
        assert qbinom(3, 1, 2) == 7
        assert qbinom(4, 2, 3) == 130

    def test_rows(self):
        assert [qbinom(5, k, 2) for k in range(6)] == [1, 31, 155, 155, 31, 1]
        assert [qbinom(4, k, 3) for k in range(5)] == [1, 40, 130, 40, 1]
        assert [qbinom(3, k, 4) for k in range(4)] == [1, 21, 21, 1]
        assert [qbinom(3, k, 3) for k in range(4)] == [1, 13, 13, 1]

    def test_out_of_range_is_zero(self):
        assert qbinom(3, -1, 2) == 0
        assert qbinom(3, 4, 2) == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            qbinom(-1, 0, 2)
        with pytest.raises(DomainError):
            qbinom(3, 1, 1)

    @given(st.integers(0, 12), st.integers(0, 12), st.sampled_from([2, 3, 4, 5, 7]))
    def test_symmetry(self, n, k, q):
        assert qbinom(n, k, q) == qbinom(n, n - k, q)

    @given(st.integers(0, 10), st.integers(0, 10), st.sampled_from([2, 3, 4, 5]))
    def test_recurrence_agrees_with_product_form(self, n, k, q):
        assert qbinom(n, k, q) == _qbinom_pascal(n, k, q)

    @pytest.mark.parametrize("n, q", [(40, 2), (25, 3), (12, 256), (9, 1021)])
    def test_whole_rows_match_pascal(self, n, q):
        assert [qbinom(n, k, q) for k in range(-1, n + 2)] == [
            _qbinom_pascal(n, k, q) for k in range(-1, n + 2)
        ]

    def test_large_arguments_are_iterative(self):
        # Pascal's rule recursed n deep; the product formula runs in a loop
        value = qbinom(300, 150, 2)
        num = den = 1
        for i in range(150):
            num *= 2 ** (300 - i) - 1
            den *= 2 ** (i + 1) - 1
        assert value == num // den and num % den == 0
        assert qbinom(5000, 1, 2) == 2 ** 5000 - 1
        assert qbinom(100000, 0, 256) == qbinom(100000, 100000, 256) == 1

    def test_size_ceiling(self):
        # k(n-k)·ceil(log2 q) at the ceiling is computed, one step over is refused
        top = QBINOM_MAX_BITS
        assert qbinom(top + 1, 1, 2) == 2 ** (top + 1) - 1
        assert qbinom(1 + top // 8, 1, 256) == (256 ** (1 + top // 8) - 1) // 255
        for args in ((QBINOM_MAX_BITS + 2, 1, 2), (3000, 1500, 2), (100000, 50000, 256),
                     (2 + QBINOM_MAX_BITS // 8, 1, 256)):
            with pytest.raises(ResourceLimitError):
                qbinom(*args)

    @given(st.integers(1, 10), st.integers(1, 10), st.sampled_from([2, 3]))
    def test_pascal_recurrence(self, n, k, q):
        assert qbinom(n, k, q) == qbinom(n - 1, k - 1, q) + q ** k * qbinom(n - 1, k, q)


class TestAltSum:
    def test_zero_for_positive_n(self):
        for q in (2, 3, 4, 5):
            for n in range(1, 9):
                assert alt_sum(n, q) == 0

    def test_one_at_zero(self):
        for q in (2, 3, 4, 5):
            assert alt_sum(0, q) == 1


class TestCapitalN:
    def test_values(self):
        assert capital_N(3, 1, 1, 2) == 7
        assert capital_N(4, 3, 2, 2) == 15 + 35
        assert capital_N(2, 4, 1, 2) == 0

    @given(
        st.integers(0, 8), st.integers(0, 8), st.integers(1, 4), st.sampled_from([2, 3])
    )
    def test_matches_direct_sum(self, n, s, r, q):
        assert capital_N(n, s, r, q) == sum(qbinom(n, s - i, q) for i in range(r))

    def test_requires_positive_r(self):
        with pytest.raises(DomainError):
            capital_N(3, 1, 0, 2)


class TestPrimes:
    def test_is_prime_small(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert not is_prime(1) and not is_prime(0) and not is_prime(-7)

    def test_is_prime_large(self):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(561)
        assert not is_prime(3215031751)

    def test_psi12_is_composite(self):
        # strong pseudoprime to every prime base up to 37
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert not is_prime(psi12)

    def test_matches_sympy(self):
        import random

        sympy = pytest.importorskip("sympy")
        rng = random.Random(20200410)
        samples = [rng.randrange(2, 10 ** 6) for _ in range(2000)]
        samples += [rng.randrange(2, 3 * 10 ** 24) | 1 for _ in range(300)]
        samples += [2 ** 89 - 1, 3317044064679887385961981 - 2]
        for n in samples:
            assert is_prime(n) == sympy.isprime(n), n

    def test_trial_factor(self):
        assert trial_factor(360) == ([2, 3, 5], 1)
        primes, cofactor = trial_factor(2 ** 4 * (10 ** 7 + 19), ceiling=10 ** 3)
        assert primes == [2] and cofactor == 10 ** 7 + 19

    def test_multiplicative_order(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(2, 5) == 4
        assert multiplicative_order(2, 11) == 10


ZSIGMONDY_TABLE = {
    2: {2: 3, 3: 7, 4: 5, 5: 31, 7: 127, 8: 17, 9: 73, 10: 11},
    3: {3: 13, 4: 5, 5: 11, 6: 7, 7: 1093, 8: 41, 9: 757, 10: 61},
    4: {2: 5, 3: 7, 4: 17, 5: 11, 6: 13, 7: 43, 8: 257, 9: 19, 10: 41},
    5: {2: 3, 3: 31, 4: 13, 5: 11, 6: 7, 7: 19531, 8: 313, 9: 19, 10: 521},
    7: {3: 19, 4: 5, 5: 2801, 6: 43, 7: 29, 8: 1201, 9: 37, 10: 11},
    8: {2: 3, 3: 73, 4: 5, 5: 31, 6: 19, 7: 127, 8: 17, 9: 262657, 10: 11},
    9: {2: 5, 3: 7, 4: 41, 5: 11, 6: 73, 7: 547, 8: 17, 9: 19, 10: 1181},
}


class TestZsigmondy:
    def test_exception_markers(self):
        assert zsigmondy_exception(2, 6) is not None
        assert zsigmondy_exception(2, 6).clause == "q_2_b_6"
        for q in (3, 7, 15, 31):
            marker = zsigmondy_exception(q, 2)
            assert marker is not None
            assert marker.clause == "q_plus_one_power_of_two"
        assert zsigmondy_exception(2, 2) is None
        assert zsigmondy_exception(5, 2) is None
        assert zsigmondy_exception(2, 5) is None

    def test_table(self):
        for q, row in ZSIGMONDY_TABLE.items():
            for b, expected in row.items():
                assert zsigmondy_prime(q, b) == expected, (q, b)

    def test_found_prime_has_exact_order(self):
        for q, row in ZSIGMONDY_TABLE.items():
            for b, p in row.items():
                assert multiplicative_order(q, p) == b

    def test_exceptional_pairs_return_marker(self):
        marker = zsigmondy_prime(2, 6)
        assert isinstance(marker, ZsigmondyException)
        marker = zsigmondy_prime(3, 2)
        assert isinstance(marker, ZsigmondyException)

    def test_require_raises_on_exception(self):
        with pytest.raises(UnsupportedParametersError):
            require_zsigmondy_prime(2, 6)
        with pytest.raises(UnsupportedParametersError) as info:
            require_zsigmondy_prime(7, 2)
        assert info.value.clause == "q_plus_one_power_of_two"
        assert require_zsigmondy_prime(2, 3) == 7

    def test_order_test_matches_multiplicative_order(self):
        small_primes = [p for p in range(2, 200) if is_prime(p)]
        for q in range(2, 13):
            for p in small_primes:
                if q % p == 0:
                    continue
                order = multiplicative_order(q, p)
                for b in range(1, 13):
                    assert has_order(q, p, b) == (order == b), (q, p, b)

    def test_order_of_a_large_prime(self):
        # p - 1 of this 33-digit prime factor of 5^47 - 1 is beyond trial division
        p = 177635683940025046467781066894531
        assert has_order(5, p, 47) and not has_order(5, p, 1)
        assert not has_order(5, p, 94)

    def test_size_ceiling(self):
        from qlattice.qcombin import ZSIGMONDY_MAX_BITS

        # 2^2048 - 1 is at the ceiling and factors as far as trial division
        # goes; one more bit is refused before any division
        assert ZSIGMONDY_MAX_BITS == 2048
        with pytest.raises(ResourceLimitError, match="over the trial-division ceiling of 2048"):
            zsigmondy_prime(2, 2049)
        with pytest.raises(ResourceLimitError, match=r"^256\^100000-1 has up to 800000 bits"):
            zsigmondy_prime(256, 100000)
        with pytest.raises(ResourceLimitError, match="^cofactor "):
            zsigmondy_prime(2, 2048, ceiling=10)

    def test_exception_markers_ignore_the_size_ceiling(self):
        q = 2 ** 5000 - 1
        assert zsigmondy_prime(q, 2).clause == "q_plus_one_power_of_two"

    def test_unfactorable_cofactor_reports_resource_limit(self):
        # q^b - 1 with two huge prime factors and a tiny ceiling cannot complete
        with pytest.raises(ResourceLimitError):
            zsigmondy_prime(2, 101, ceiling=10 ** 3)



# The first Carmichael numbers: a^(n-1) = 1 mod n for every a prime to n.
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657)


class TestProvenCofactors:
    """is_prime is exact only below PSI_13; larger answers need a Pocklington proof."""

    def test_psi_13_is_the_first_strong_pseudoprime_to_the_witnesses(self):
        from qlattice.qcombin import PSI_13

        sympy = pytest.importorskip("sympy")
        assert is_prime(PSI_13) and not sympy.isprime(PSI_13)

    def test_pocklington_matches_sympy(self):
        from qlattice.qcombin import _pocklington

        sympy = pytest.importorskip("sympy")
        for n in [*range(3, 20001, 2), *CARMICHAEL]:
            assert _pocklington(n, 10 ** 4) == sympy.isprime(n), n

    def test_pocklington_false_means_no_proof(self):
        from qlattice.qcombin import _pocklington

        # 2^127 - 2 = 2·3^3·7^2·19·43·73·127·337·5419·92737·649657·77158673929:
        # trial division finds the part below 10^4 and rho splits the rest
        assert _pocklington(2 ** 127 - 1, 10 ** 6)
        assert _pocklington(2 ** 127 - 1, 10 ** 4)
        # n - 1 = 2·P·Q with primes P, Q above 10^15: rho reaches its step
        # cap before it splits P·Q, so n is prime but unproved
        P, Q = 1000000000000037, 1000000000002667
        sympy = pytest.importorskip("sympy")
        assert sympy.isprime(P) and sympy.isprime(Q) and sympy.isprime(2 * P * Q + 1)
        assert not _pocklington(2 * P * Q + 1, 10 ** 4)

    def test_rho_splits_what_trial_division_leaves(self):
        from qlattice.qcombin import _rho_factor

        # the composite leftovers of p - 1 for the answers to (2, 107),
        # (5, 47) and (3, 71) split into their two prime factors
        for small, large in [
            (20394401, 28059810762433),
            (332207361361, 42272797713043),
            (2664097031, 374857981681),
        ]:
            assert _rho_factor(small * large) in (small, large)
        # small shapes, squares and a prime power: any proper factor
        for m in (15, 9, 25, 7 ** 4):
            assert 1 < _rho_factor(m) < m and m % _rho_factor(m) == 0, m

    def test_mersenne_cofactor_is_proved(self):
        # 2^89 - 1 is above PSI_13, and 2^89 - 2 factors completely
        assert zsigmondy_prime(2, 89, ceiling=10 ** 4) == 2 ** 89 - 1

    @pytest.mark.parametrize("q, b, prime", [
        (2, 107, 162259276829213363391578010288127),
        (5, 47, 177635683940025046467781066894531),
        (3, 71, 3754733257489862401973357979128773),
    ])
    def test_rho_proves_large_answers(self, q, b, prime):
        # each p - 1 keeps a composite part of 21 to 26 digits after trial division
        sympy = pytest.importorskip("sympy")
        assert zsigmondy_prime(q, b, ceiling=10 ** 4) == prime
        assert prime == min(p for p in sympy.primefactors(q ** b - 1) if sympy.n_order(q, p) == b)

    def test_unproved_cofactor_is_refused(self):
        # the 110-digit prime (7^131 - 1)/6: trial division of p - 1 to 10^4
        # leaves a 98-digit composite that rho cannot split within its cap
        sympy = pytest.importorskip("sympy")
        cofactor = (7 ** 131 - 1) // 6
        assert sympy.isprime(cofactor)
        with pytest.raises(ResourceLimitError, match="^cofactor 8505.* cannot prove prime$") as info:
            zsigmondy_prime(7, 131, ceiling=10 ** 4)
        assert info.value.partial == {"factored": [2, 3], "cofactor": cofactor}
        # the message names both steps of the proof attempt
        assert "trial division of cofactor - 1 to 10000 and Pollard-Brent rho" in str(info.value)

    def test_smaller_answer_needs_no_proof(self):
        # 223 has order 37 at 7; the unproved cofactor 4805...401 is not the answer
        assert zsigmondy_prime(7, 37, ceiling=10 ** 4) == 223

    def test_against_sympy(self):
        from qlattice.qcombin import PSI_13

        sympy = pytest.importorskip("sympy")
        ceiling = 10 ** 4
        outcomes = set()
        for q in range(2, 11):
            for b in range(2, 200 // q.bit_length()):
                if zsigmondy_exception(q, b) is not None:
                    continue
                m = q ** b - 1
                found, rem = trial_factor(m, ceiling)
                first = next((p for p in found if sympy.n_order(q, p) == b), None)
                try:
                    answer = zsigmondy_prime(q, b, ceiling)
                except ResourceLimitError as exc:
                    # a composite cofactor, or a prime one that would be the
                    # answer but is beyond is_prime's exact range
                    assert exc.partial == {"factored": found, "cofactor": rem}
                    assert not sympy.isprime(rem) or (first is None and rem >= PSI_13)
                    outcomes.add("composite" if not sympy.isprime(rem) else "unproved")
                    continue
                assert sympy.isprime(answer) and sympy.n_order(q, answer) == b
                assert answer == (first or rem), (q, b)
                outcomes.add("proved" if answer >= PSI_13 else "exact")
        # rho proves every large answer here; test_unproved_cofactor_is_refused
        # covers the refusal
        assert outcomes == {"composite", "proved", "exact"}


class TestAuxiliaries:
    def test_primorial_prime_set(self):
        assert primorial_prime_set(2, 8) == [3, 5]
        assert primorial_prime_set(2, 2) == [3]
        assert primorial_prime_set(3, 100) == [5, 7, 11]

    def test_growth_functions(self):
        assert math.isclose(g_of(2, 8), 6.736548609705517, rel_tol=1e-12)
        assert h_of(2, 4) == 2.0
        # h is capped by g
        assert h_of(2, 10 ** 6) == g_of(2, 10 ** 6)

    def test_ceil_log(self):
        assert ceil_log(2, 4) == 2
        assert ceil_log(2, 5) == 3
        assert ceil_log(3, 27) == 3
        assert ceil_log(3, 28) == 4
        assert ceil_log(5, 1) == 0

    def test_prime_power(self):
        assert prime_power(9) == (3, 2)
        assert prime_power(8) == (2, 3)
        assert prime_power(7) == (7, 1)
        assert prime_power(12) is None
        assert prime_power(1) is None

    def test_prime_power_matches_trial_division(self):
        def oracle(q):
            found, _ = trial_factor(q) if q >= 2 else ([], q)
            if len(found) != 1:
                return None
            p, e = found[0], 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None

        assert all(prime_power(q) == oracle(q) for q in range(-2, 5000))

    def test_prime_power_large(self):
        m61 = 2 ** 61 - 1
        assert prime_power(m61) == (m61, 1)
        assert prime_power(m61 ** 3) == (m61, 3)
        assert prime_power(3 ** 40) == (3, 40)
        assert prime_power(2 ** 400) == (2, 400)
        assert prime_power(2 ** 400 + 1) is None
        assert prime_power(m61 * (2 ** 31 - 1)) is None


class TestBoundReport:
    def test_validation(self):
        report = BoundReport("theorem_main", {"n": 3}, "both-disjuncts", 7, {})
        data = report.to_json_dict()
        assert data["bound"] == 7 and data["theorem_id"] == "theorem_main"
        with pytest.raises(DomainError):
            BoundReport("mystery", {}, "x", 1, {})
        with pytest.raises(DomainError):
            BoundReport("theorem_main", {}, "x", -1, {})
