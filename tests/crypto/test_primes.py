"""Primality and prime-generation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import primes
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key
from repro.errors import KeyGenerationError

KNOWN_PRIMES = [2, 3, 5, 7, 11, 13, 101, 7919, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [1, 0, -7, 4, 9, 15, 100, 7917, 2**31, 2**61 - 3]
# Carmichael numbers fool the Fermat test but not Miller-Rabin.
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]


class TestIsProbablePrime:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites(self, n):
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", CARMICHAEL)
    def test_carmichael_numbers_rejected(self, n):
        assert not is_probable_prime(n)

    def test_large_prime(self):
        # 2^127 - 1 is a Mersenne prime, above the deterministic limit
        # for some witnesses but well-testable.
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime(2**127 - 3)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 100000))
    def test_agrees_with_trial_division(self, n):
        by_trial = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == by_trial

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(2, 2**40), b=st.integers(2, 2**40))
    def test_products_are_composite(self, a, b):
        assert not is_probable_prime(a * b)


class TestGeneratePrime:
    def test_bit_length_exact(self):
        rng = DeterministicRandom(1)
        for bits in (16, 64, 128, 256):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_top_two_bits_set(self):
        rng = DeterministicRandom(2)
        p = generate_prime(64, rng)
        assert (p >> 62) & 0b11 == 0b11

    def test_avoid(self):
        rng1 = DeterministicRandom(3)
        p = generate_prime(32, rng1)
        rng2 = DeterministicRandom(3)
        q = generate_prime(32, rng2, avoid=p)
        assert q != p

    def test_deterministic(self):
        assert generate_prime(64, DeterministicRandom(7)) == generate_prime(
            64, DeterministicRandom(7)
        )

    def test_too_small_rejected(self):
        with pytest.raises(KeyGenerationError):
            generate_prime(4, DeterministicRandom(1))

    def test_odd(self):
        p = generate_prime(48, DeterministicRandom(11))
        assert p % 2 == 1


# ----------------------------------------------------------------------
# the gcd sieve must not change what keygen draws or returns
# ----------------------------------------------------------------------
def mr_only_is_probable_prime(n, rng=None):
    """``is_probable_prime`` as it was before the gcd sieve: trial
    division, then Miller-Rabin with the same witness draws."""
    if n < 2:
        return False
    for p in primes._SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < primes._DETERMINISTIC_LIMIT:
        witnesses = primes._DETERMINISTIC_WITNESSES
    else:
        rng = rng if rng is not None else DeterministicRandom(n & 0xFFFF_FFFF)
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(primes._RANDOM_ROUNDS))
    for a in witnesses:
        a %= n
        if a < 2:
            continue
        if not primes._miller_rabin_round(n, a, d, r):
            return False
    return True


def primes_between(lo, hi):
    return [n for n in range(lo | 1, hi, 2) if mr_only_is_probable_prime(n)]


SIEVE_PRIMES = primes_between(200, 1 << 15)
ABOVE_SIEVE = primes_between(1 << 15, (1 << 15) + 400)


class TestSieveKeepsKeygenIdentical:
    @pytest.mark.parametrize("bits", [256, 512, 1024])
    @pytest.mark.parametrize("seed", range(8))
    def test_same_key_and_rng_state(self, monkeypatch, bits, seed):
        rng = DeterministicRandom(seed).fork_stream("keygen")
        key = generate_rsa_key(bits, rng)
        with monkeypatch.context() as patched:
            patched.setattr(primes, "is_probable_prime", mr_only_is_probable_prime)
            reference_rng = DeterministicRandom(seed).fork_stream("keygen")
            reference = generate_rsa_key(bits, reference_rng)
        assert key == reference
        assert rng.getstate() == reference_rng.getstate()

    def test_sieve_covers_the_primes_after_trial_division(self):
        assert SIEVE_PRIMES[0] == 211 and SIEVE_PRIMES[-1] == 32749
        product = primes._sieve_product()
        assert all(product % p == 0 for p in SIEVE_PRIMES)
        assert product % 199 and product % ABOVE_SIEVE[0]

    def test_sieved_candidates_skip_miller_rabin(self, monkeypatch):
        def no_pow(*args):
            raise AssertionError("a sieved candidate reached Miller-Rabin")

        monkeypatch.setattr(primes, "_miller_rabin_round", no_pow)
        n = 32749 * (2**300 + 31)
        rng, reference_rng = DeterministicRandom(4), DeterministicRandom(4)
        assert not is_probable_prime(n, rng)
        for _ in range(primes._RANDOM_ROUNDS):
            reference_rng.randrange(2, n - 1)
        assert rng.getstate() == reference_rng.getstate()

    def test_primes_in_sieve_range_still_prime(self):
        assert all(is_probable_prime(p) for p in SIEVE_PRIMES)
        assert not is_probable_prime(211 * 223)
        assert not is_probable_prime(32749 * 32749)

    def test_products_of_primes_above_sieve_rejected(self):
        # Two factors: the deterministic-witness path.
        for p, q in zip(ABOVE_SIEVE, ABOVE_SIEVE[1:]):
            assert not is_probable_prime(p * q)
        # Six factors: past the deterministic limit, so the witnesses are
        # drawn, the sieve finds nothing and Miller-Rabin must reject.
        n = 1
        for p in ABOVE_SIEVE[:6]:
            n *= p
        assert n > primes._DETERMINISTIC_LIMIT
        rng, reference_rng = DeterministicRandom(9), DeterministicRandom(9)
        assert not is_probable_prime(n, rng)
        assert not mr_only_is_probable_prime(n, reference_rng)
        assert rng.getstate() == reference_rng.getstate()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(
            st.integers(2, primes._DETERMINISTIC_LIMIT - 1),
            st.integers(primes._DETERMINISTIC_LIMIT, 2**300),
            st.builds(
                lambda p, m: p * m,
                st.sampled_from(SIEVE_PRIMES),
                st.integers(primes._DETERMINISTIC_LIMIT, 2**300),
            ),
        ),
        seed=st.integers(0, 2**32),
    )
    def test_same_answer_and_rng_state_as_mr_only(self, n, seed):
        rng, reference_rng = DeterministicRandom(seed), DeterministicRandom(seed)
        assert is_probable_prime(n, rng) == mr_only_is_probable_prime(n, reference_rng)
        assert rng.getstate() == reference_rng.getstate()
        if n < primes._DETERMINISTIC_LIMIT:
            assert rng.getstate() == DeterministicRandom(seed).getstate()
