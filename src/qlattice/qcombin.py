"""Exact q-combinatorics: Gaussian binomials, full-order prime search, bound reports.

Everything that feeds an integer decision is computed with exact integer
arithmetic. The two advisory growth functions (``g_of``, ``h_of``) are the only
floating-point values in the module and are never used to branch.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Optional, Union

from .errors import DomainError, ResourceLimitError, UnsupportedParametersError
from .records import Fresh, Record

DEFAULT_FACTOR_CEILING = 10 ** 7

# Exact below PSI_13, the least strong pseudoprime to all of them (Sorenson
# and Webster 2015); without 41 the limit is psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981

# _pocklington tries the bases a = 2, 3, ... below this for each prime factor of n - 1.
_POCKLINGTON_MAX_BASE = 1000

# _rho_factor's cap: about a second of steps. Its cost grows with the square
# root of the smallest prime factor, so factors up to about 10^12 are in reach.
_RHO_MAX_STEPS = 1 << 21
_RHO_BATCH = 128


# Largest Gaussian binomial computed, in bits. [n k]_q lies below
# 4·q^(k(n-k)), so k(n-k)·ceil(log2 q) + 2 bounds its bit length; at 2^18
# bits it takes about 0.2 s to compute and 0.1 s to print in decimal.
QBINOM_MAX_BITS = 1 << 18

# Largest q^b - 1 that zsigmondy_prime trial-factors, in bits of its upper
# bound q^b <= 2^(b·ceil(log2 q)). Trial division to the default ceiling
# takes a few seconds on a 2048-bit number, and a composite cofactor of at
# most 2048 bits (617 digits) still prints in an error message.
ZSIGMONDY_MAX_BITS = 1 << 11


@lru_cache(maxsize=1024)
def qbinom(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n k]_q: the number of k-dim subspaces of GF(q)^n.

    Product formula over min(k, n - k) factors (q^(n-i) - 1)/(q^(i+1) - 1),
    dividing as it goes: after i factors the running value is [n i]_q, so
    every division is exact. k outside [0, n] gives 0. Raises
    ResourceLimitError when k(n-k)·ceil(log2 q) exceeds QBINOM_MAX_BITS.
    A memo keeps the 1024 most recent (n, k, q).
    """
    if n < 0:
        raise DomainError(f"qbinom: n must be >= 0, got {n}")
    if q < 2:
        raise DomainError(f"qbinom: q must be >= 2, got {q}")
    if k < 0 or k > n:
        return 0
    size = k * (n - k) * (q - 1).bit_length()
    if size > QBINOM_MAX_BITS:
        raise ResourceLimitError(
            f"[{n} {k}]_{q} has about {size} bits, over the ceiling of {QBINOM_MAX_BITS}"
        )
    out = 1
    for i in range(min(k, n - k)):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def alt_sum(n: int, q: int) -> int:
    """Signed lattice sum  sum_d [n d]_q (-1)^d q^(d(d-1)/2).

    Equals 1 for n = 0 and 0 for every n >= 1; evaluated literally so tests can
    confirm the cancellation rather than assume it.
    """
    if n < 0 or q < 2:
        raise DomainError("alt_sum: need n >= 0 and q >= 2")
    return sum(qbinom(n, d, q) * (-1) ** d * q ** (d * (d - 1) // 2) for d in range(n + 1))


def capital_N(n: int, s: int, r: int, q: int) -> int:
    """Window sum [n s]_q + [n s-1]_q + ... + [n s-r+1]_q (r terms).

    Out-of-range indices contribute 0 under the qbinom zero convention.
    """
    if r < 1:
        raise DomainError(f"capital_N: r must be >= 1, got {r}")
    if n < 0 or q < 2:
        raise DomainError("capital_N: need n >= 0 and q >= 2")
    return sum(qbinom(n, s - i, q) for i in range(r))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (fixed witness set, exact below 3.3e24 = psi_13)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pocklington(n: int, ceiling: int) -> bool:
    """True when Pocklington's theorem proves the odd probable prime n prime.

    n - 1 is trial-factored up to ceiling, and _rho_factor splits the
    composite leftover further; a piece counts as factored only when it lies
    below PSI_13 and is_prime accepts it. With F the factored part of n - 1,
    n is prime when F^2 > n and each prime f dividing F has a base a with
    a^(n-1) = 1 mod n and gcd(a^((n-1)/f) - 1, n) = 1. A base with
    a^(n-1) != 1 mod n shows n composite; otherwise False means no proof was
    found, not that n is composite.
    """
    factors, rest = trial_factor(n - 1, ceiling)
    pieces, rest = [rest], 1
    while pieces:
        m = pieces.pop()
        if m < PSI_13 and is_prime(m):
            factors.append(m)
        elif m > 1 and not is_prime(m) and (f := _rho_factor(m)) is not None:
            pieces += [f, m // f]
        else:
            rest *= m
    if ((n - 1) // rest) ** 2 <= n:
        return False
    for f in factors:
        for a in range(2, min(n, _POCKLINGTON_MAX_BASE)):
            if pow(a, n - 1, n) != 1:
                return False
            if math.gcd(pow(a, (n - 1) // f, n) - 1, n) == 1:
                break
        else:
            return False
    return True


def _rho_factor(m: int) -> Optional[int]:
    """A proper factor of the composite m, or None after _RHO_MAX_STEPS steps.

    Pollard's rho with Brent's cycle search: y runs through y -> y^2 + c
    mod m, and x holds its value at each power-of-two step r. The next r
    values are compared with x, one gcd per batch of products of x - y; a
    batch whose gcd is m is replayed one step at a time. A cycle that closes
    with no proper factor starts again with the next c.
    """
    steps = 0
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            steps += r
            for k in range(0, r, _RHO_BATCH):
                if steps >= _RHO_MAX_STEPS:
                    return None
                start, prod = y, 1
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    prod = prod * (x - y) % m
                steps += _RHO_BATCH
                g = math.gcd(prod, m)
                if g != 1:
                    break
            r *= 2
        if g == m:
            y, g = start, 1
            while g == 1:
                y = (y * y + c) % m
                g = math.gcd(x - y, m)
        if g != m:
            return g


def primes() -> Iterator[int]:
    """Incremental sieve: the infinite ascending stream of primes."""
    yield 2
    composites: dict[int, int] = {}
    n = 3
    while True:
        step = composites.pop(n, 0)
        if step:
            nxt = n + step
            while nxt in composites:
                nxt += step
            composites[nxt] = step
        else:
            yield n
            composites[n * n] = 2 * n
        n += 2


def trial_factor(m: int, ceiling: Optional[int] = None) -> tuple[list[int], int]:
    """Trial-divide m: (ascending distinct prime factors found, remaining cofactor).

    Division stops at min(ceiling, isqrt of the shrinking remainder); the
    cofactor is 1 when the factorization completed.
    """
    if m < 1:
        raise DomainError(f"trial_factor: m must be >= 1, got {m}")
    found: list[int] = []
    rem = m
    d = 2
    while d * d <= rem and (ceiling is None or d <= ceiling):
        if rem % d == 0:
            found.append(d)
            while rem % d == 0:
                rem //= d
        d += 1 if d == 2 else 2
    if rem > 1 and d * d > rem:
        # scan covered the whole sqrt range, so the remainder is prime
        found.append(rem)
        rem = 1
    return found, rem


def multiplicative_order(q: int, p: int) -> int:
    """Least i >= 1 with q^i = 1 mod p, for p prime not dividing q."""
    if p < 2 or not is_prime(p):
        raise DomainError(f"multiplicative_order: p must be prime, got {p}")
    if q % p == 0:
        raise DomainError(f"multiplicative_order: {p} divides q = {q}")
    phi = p - 1
    factors, _ = trial_factor(phi)
    order = phi
    for f in factors:
        while order % f == 0 and pow(q, order // f, p) == 1:
            order //= f
    return order


def has_order(q: int, p: int, b: int) -> bool:
    """True iff q has multiplicative order exactly b mod p, for b >= 1.

    q^b = 1 mod p, and q^(b/r) != 1 mod p for every prime r dividing b. Only
    b is factored, never p - 1, so this is fast for any size of p.
    """
    if pow(q, b, p) != 1:
        return False
    primes, _ = trial_factor(b)
    return all(pow(q, b // r, p) != 1 for r in primes)


class ZsigmondyException(Record):
    """Marker for the two (q, b) pairs with no full-order prime divisor.

    ``clause`` identifies which exclusion fired: "q_plus_one_power_of_two"
    (b = 2 with q+1 a power of two) or "q_2_b_6" (q = 2, b = 6).
    """

    q: int
    b: int
    clause: str

    def message(self) -> str:
        if self.clause == "q_plus_one_power_of_two":
            return f"q+1 = {self.q + 1} is a power of two and b = 2: no full-order prime"
        return "q = 2, b = 6: no full-order prime"


def zsigmondy_exception(q: int, b: int) -> Optional[ZsigmondyException]:
    """The exception marker for (q, b), or None when a full-order prime exists."""
    if q < 2 or b < 2:
        raise DomainError(f"zsigmondy_exception: need q >= 2 and b >= 2, got ({q}, {b})")
    if b == 2 and (q + 1) & q == 0:
        return ZsigmondyException(q, b, "q_plus_one_power_of_two")
    if q == 2 and b == 6:
        return ZsigmondyException(q, b, "q_2_b_6")
    return None


def zsigmondy_prime(
    q: int, b: int, ceiling: int = DEFAULT_FACTOR_CEILING
) -> Union[int, ZsigmondyException]:
    """Smallest prime p dividing q^b - 1 whose multiplicative order at q is b.

    The two excluded (q, b) shapes return a ZsigmondyException marker instead
    of a prime; that marker is an answer, not an error. Factoring is trial
    division up to ``ceiling`` plus a primality check on the cofactor; an
    unfactorable composite cofactor raises ResourceLimitError carrying the
    partial factorization. is_prime is exact only below PSI_13, so a larger
    cofactor that would be the answer must also pass _pocklington, with
    cofactor - 1 trial-divided to the same ceiling and its leftover split
    by _rho_factor; without that proof it raises ResourceLimitError with the
    same partial data. So does a q^b - 1 too large to trial-factor:
    b·ceil(log2 q) over ZSIGMONDY_MAX_BITS.
    """
    exc = zsigmondy_exception(q, b)
    if exc is not None:
        return exc
    size = b * (q - 1).bit_length()
    if size > ZSIGMONDY_MAX_BITS:
        raise ResourceLimitError(
            f"{q}^{b}-1 has up to {size} bits, over the trial-division ceiling of "
            f"{ZSIGMONDY_MAX_BITS} bits"
        )
    m = q ** b - 1
    found, rem = trial_factor(m, ceiling)
    partial = {"factored": found, "cofactor": rem}
    if rem > 1 and not is_prime(rem):
        raise ResourceLimitError(
            f"cofactor {rem} of {q}^{b}-1 is composite and exceeds the "
            f"trial-division ceiling {ceiling}",
            partial=partial,
        )
    for p in found:
        if has_order(q, p, b):
            return p
    if rem > 1:
        if rem >= PSI_13 and not _pocklington(rem, ceiling):
            raise ResourceLimitError(
                f"cofactor {rem} of {q}^{b}-1 is a probable prime that trial division "
                f"of cofactor - 1 to {ceiling} and Pollard-Brent rho on the leftover "
                f"cannot prove prime",
                partial=partial,
            )
        if has_order(q, rem, b):
            return rem
    raise ArithmeticError(f"no full-order prime divisor of {q}^{b}-1 found")


def require_zsigmondy_prime(q: int, b: int) -> int:
    """zsigmondy_prime, with the exception marker promoted to an error."""
    result = zsigmondy_prime(q, b)
    if isinstance(result, ZsigmondyException):
        raise UnsupportedParametersError(
            f"(q, b) = ({q}, {b}) is excluded: {result.message()}", clause=result.clause
        )
    return result


def primorial_prime_set(t: int, n: int) -> list[int]:
    """Successive primes strictly above t until their product strictly exceeds n.

    Greedy-minimal: dropping the last member makes the product <= n.
    """
    if t < 1 or n < 1:
        raise DomainError(f"primorial_prime_set: need t >= 1 and n >= 1, got ({t}, {n})")
    out: list[int] = []
    prod = 1
    for p in primes():
        if p <= t:
            continue
        if prod > n:
            break
        out.append(p)
        prod *= p
    return out


def g_of(t: int, n: int) -> float:
    """Advisory growth term 2(2t + ln n)/ln(2t + ln n). Never branch on this."""
    if t < 2 or n < 1:
        raise DomainError(f"g_of: need t >= 2 and n >= 1, got ({t}, {n})")
    x = 2 * t + math.log(n)
    return 2 * x / math.log(x)


def h_of(t: int, n: int) -> float:
    """Advisory min(g_of(t, n), ln n / ln t). Never branch on this."""
    if t < 2 or n < 1:
        raise DomainError(f"h_of: need t >= 2 and n >= 1, got ({t}, {n})")
    return min(g_of(t, n), math.log(n) / math.log(t))


def ceil_log(b: int, n: int) -> int:
    """Smallest k >= 0 with b^k >= n, by pure integer comparison."""
    if b < 2 or n < 1:
        raise DomainError(f"ceil_log: need b >= 2 and n >= 1, got ({b}, {n})")
    k, v = 0, 1
    while v < n:
        v *= b
        k += 1
    return k


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, e) with q = p^e for p prime, or None when q is not a prime power.

    Each exponent e <= log2 q is tried through the integer e-th root of q,
    and an exact root is tested with is_prime. Only e itself gives a prime
    root of p^e, and no trial division runs, so a large prime q answers at
    once.
    """
    for e in range(1, q.bit_length()):
        # Newton's method from above converges to floor(q^(1/e)).
        root = 1 << -(-q.bit_length() // e)
        while (step := ((e - 1) * root + q // root ** (e - 1)) // e) < root:
            root = step
        if root ** e == q and is_prime(root):
            return root, e
    return None


_THEOREM_IDS = ("theorem_main", "frac_general", "frac_singleton", "frankl_graham")


class BoundReport(Record):
    """Outcome of a bound evaluation.

    ``bound`` is an exact nonnegative integer; real-valued intermediates live in
    ``auxiliaries`` as decimal strings. ``branch`` is one of a small fixed label
    set per theorem_id, so sweep scripts can group case splits.
    """

    theorem_id: str
    inputs_echo: dict
    branch: str
    bound: int
    auxiliaries: dict = Fresh(dict)

    def _validate(self):
        if self.theorem_id not in _THEOREM_IDS:
            raise DomainError(f"unknown theorem_id {self.theorem_id!r}")
        if self.bound < 0:
            raise DomainError("bound must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "inputs": self.inputs_echo,
            "branch": self.branch,
            "bound": self.bound,
            "auxiliaries": self.auxiliaries,
        }
