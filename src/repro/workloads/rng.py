"""The seeded random stream behind every synthetic trace.

:class:`Generator` is a stdlib-only port of the draws
:mod:`repro.workloads.synthetic` and :mod:`repro.workloads.mixes` make
from ``numpy.random.default_rng(seed)``, and it reproduces numpy 2.x's
stream for them bit for bit (DESIGN.md section 2).  The stream is
defined here rather than borrowed from numpy because numpy promises no
cross-version stream stability (NEP 19) and the run-cache key hashes
only this package's sources: an installed numpy could otherwise change
every trace under an unchanged key.  numpy stays the test oracle
(``tests/workloads/test_rng.py``).

The pieces, each in numpy's order of draws:

* seeding: ``SeedSequence`` hashes the seed's 32-bit words into a
  4-word pool and expands it into PCG64's 128-bit state and increment;
* PCG64: a 128-bit LCG with the XSL-RR output; a 32-bit draw hands out
  the low half of a 64-bit draw and buffers the high half for the next
  32-bit draw, across calls and methods;
* ``random``: the top 53 bits of a 64-bit draw, scaled to [0, 1);
* ``integers``: Lemire's bounded method on 32-bit draws;
* exponential draws (numpy's ``standard_exponential``): the 256-layer
  ziggurat, with numpy's tables (:data:`_KE`, :data:`_WE`,
  :data:`_FE`), copied exactly since they cannot be recomputed to the
  bit;
* ``geometric``: a sequential search for p >= 1/3, else inversion of
  an exponential draw;
* ``zipf``: rejection sampling;
* ``choice`` with probabilities: ``bisect_right`` of ``random`` draws
  on the normalised running sum of ``p``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence, Union

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: PCG64's LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: ``word * _DOUBLED`` is a 64-bit word followed by itself.
_DOUBLED = (1 << 64) | 1

#: ``random``'s scale: 2**-53.
_TO_UNIT = 1.0 / 9007199254740992.0

#: SeedSequence's hash constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

#: Below this ``p``, ``geometric`` inverts an exponential draw.
_GEOMETRIC_SEARCH_MIN_P = 0.333333333333333333333333

#: Start of the exponential ziggurat's tail.
_ZIGGURAT_EXP_R = 7.6971174701310497140446280481

#: ``(double) INT64_MAX``: geometric clamps and zipf rejects from here.
_INT64_MAX_FLOAT = 9.223372036854776e18
_INT64_MAX = (1 << 63) - 1


def _seed_pool(seed: int) -> List[int]:
    """``SeedSequence(seed).pool``: the seed's words hashed into 4."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _seed_state(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    pool = _seed_pool(seed)
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[2 * i] | (halves[2 * i + 1] << 32) for i in range(4)]


class Generator:
    """``numpy.random.default_rng(seed)`` for the draws traces make.

    Each method takes numpy's arguments and makes numpy's draws in
    numpy's order, returning ``size`` values as an ``array``: typecode
    ``'d'`` for ``random``, ``'q'`` for the integer draws.
    ``random()`` with no size returns one float.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        state_hi, state_lo, inc_hi, inc_lo = _seed_state(seed)
        # pcg_setseq_128_srandom_r: step from 0, add the seed, step.
        self._inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
        state = (self._inc + ((state_hi << 64) | state_lo)) & _MASK128
        self._state = (state * _MULT + self._inc) & _MASK128
        #: The buffered high half of the last 64-bit draw split for
        #: 32-bit draws, or None.
        self._half: Optional[int] = None

    # -- raw draws -----------------------------------------------------

    def _next64(self) -> int:
        state = (self._state * _MULT + self._inc) & _MASK128
        self._state = state
        # XSL-RR: xor the halves, then rotate right by the top 6 bits,
        # as a shift of the word doubled into 128 bits.
        word = (((state >> 64) ^ state) & _MASK64) * _DOUBLED
        return (word >> (state >> 122)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    # -- distributions -------------------------------------------------

    def random(self, size: Optional[int] = None
               ) -> Union[float, array[float]]:
        """Uniform floats in [0, 1)."""
        if size is None:
            return (self._next64() >> 11) * _TO_UNIT
        next64 = self._next64
        values = array("d", (0.0,)) * size
        for i in range(size):
            values[i] = (next64() >> 11) * _TO_UNIT
        return values

    def integers(self, low: int, high: int, size: int) -> array[int]:
        """Uniform ints in [low, high): Lemire's method on 32-bit draws.

        A one-value range draws nothing, as in numpy.
        """
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError("need 0 < high - low <= 2**32")
        if span == 1:
            return array("q", (low,)) * size
        threshold = ((1 << 32) - span) % span
        next32 = self._next32
        values = array("q", (0,)) * size
        for i in range(size):
            scaled = next32() * span
            while (scaled & _MASK32) < threshold:
                scaled = next32() * span
            values[i] = low + (scaled >> 32)
        return values

    def _exponential(self) -> float:
        """numpy's ``standard_exponential()``: the 256-layer ziggurat."""
        while True:
            bits = self._next64() >> 3
            layer = bits & 0xFF
            bits >>= 8
            x = bits * _WE[layer]
            if bits < _KE[layer]:
                return x
            if layer == 0:
                return _ZIGGURAT_EXP_R - math.log1p(-self.random())
            if ((_FE[layer - 1] - _FE[layer]) * self.random()
                    + _FE[layer] < math.exp(-x)):
                return x

    def geometric(self, p: float, size: int) -> array[int]:
        """Trials up to the first success, each succeeding with ``p``.

        A sequential search on one ``random`` draw for p >= 1/3, else
        ``ceil(-E / log1p(-p))`` of an exponential draw E.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        values = array("q", (0,)) * size
        if p >= _GEOMETRIC_SEARCH_MIN_P:
            q = 1.0 - p
            for i in range(size):
                u = self.random()
                trials, total, prod = 1, p, p
                while u > total:
                    prod *= q
                    total += prod
                    trials += 1
                values[i] = trials
        else:
            log_q = math.log1p(-p)
            exponential = self._exponential
            for i in range(size):
                z = -exponential() / log_q
                values[i] = (_INT64_MAX if z >= _INT64_MAX_FLOAT
                             else math.ceil(z))
        return values

    def zipf(self, a: float, size: int) -> array[int]:
        """Zipf(a) ints >= 1 by rejection, truncated to int64."""
        if not a > 1.0:
            raise ValueError("a must be > 1")
        if a >= 1025:
            return array("q", (1,)) * size
        am1 = a - 1.0
        exponent = -1.0 / am1
        b = math.pow(2.0, am1)
        u_min = math.pow(_INT64_MAX_FLOAT, -am1)
        random = self.random
        values = array("q", (0,)) * size
        i = 0
        while i < size:
            u01 = random()
            u = u01 * u_min + (1 - u01)
            v = random()
            x = math.floor(math.pow(u, exponent))
            if x > _INT64_MAX_FLOAT or x < 1:
                continue
            t = math.pow(1.0 + 1.0 / x, am1)
            if v * x * (t - 1.0) / (b - 1.0) <= t / b:
                values[i] = x
                i += 1
        return values

    def choice(self, a: int, size: int,
               p: Sequence[float]) -> array[int]:
        """Indices in ``range(a)`` drawn with probabilities ``p``."""
        if len(p) != a:
            raise ValueError("need one probability per index")
        cdf = list(accumulate(p))
        total = cdf[-1]
        cdf = [c / total for c in cdf]
        return array("q", [bisect_right(cdf, u) for u in self.random(size)])


# The exponential ziggurat's tables, ``ke_double``, ``we_double`` and
# ``fe_double`` of numpy's ``distributions.c``, copied bit for bit from
# the static library numpy installs (``numpy/random/lib/libnpyrandom.a``,
# member ``src_distributions_distributions.c.o``, where ``nm`` lists
# them as local ``.rodata`` symbols).  Doubles are ``float.hex`` text.

_KE = tuple(int(word, 16) for word in """
0x001c5214272497c6 0x0000000000000000 0x00137d5bd79c317e 0x00186ef58e3f3c10
0x001a9bb7320eb0ae 0x001bd127f719447c 0x001c951d0f88651a 0x001d1bfe2d5c3972
0x001d7e5bd56b18b2 0x001dc934dd172c70 0x001e0409dfac9dc8 0x001e337b71d47836
0x001e5a8b177cb7a2 0x001e7b42096f046c 0x001e970daf08ae3e 0x001eaef5b14ef09e
0x001ec3bd07b46556 0x001ed5f6f08799ce 0x001ee614ae6e5688 0x001ef46eca361cd0
0x001f014b76ddd4a4 0x001f0ce313a796b6 0x001f176369f1f77a 0x001f20f20c452570
0x001f29ae1951a874 0x001f31b18fb95532 0x001f39125157c106 0x001f3fe2eb6e694c
0x001f463332d788fa 0x001f4c10bf1d3a0e 0x001f51874c5c3322 0x001f56a109c3ecc0
0x001f5b66d9099996 0x001f5fe08210d08c 0x001f6414dd445772 0x001f6809f6859678
0x001f6bc52a2b02e6 0x001f6f4b3d32e4f4 0x001f72a07190f13a 0x001f75c8974d09d6
0x001f78c71b045cc0 0x001f7b9f12413ff4 0x001f7e5346079f8a 0x001f80e63be21138
0x001f835a3dad9162 0x001f85b16056b912 0x001f87ed89b24262 0x001f8a10759374fa
0x001f8c1bba3d39ac 0x001f8e10cc45d04a 0x001f8ff102013e16 0x001f91bd968358e0
0x001f9377ac47afd8 0x001f95204f8b64da 0x001f96b878633892 0x001f98410c968892
0x001f99bae146ba80 0x001f9b26bc697f00 0x001f9c85561b717a 0x001f9dd759cfd802
0x001f9f1d6761a1ce 0x001fa058140936c0 0x001fa187eb3a3338 0x001fa2ad6f6bc4fc
0x001fa3c91ace0682 0x001fa4db5fee6aa2 0x001fa5e4aa4d097c 0x001fa6e55ee46782
0x001fa7dddca51ec4 0x001fa8ce7ce6a874 0x001fa9b793ce5fee 0x001faa9970adb858
0x001fab745e588232 0x001fac48a3740584 0x001fad1682bf9fe8 0x001fadde3b5782c0
0x001faea008f21d6c 0x001faf5c2418b07e 0x001fb012c25b7a12 0x001fb0c41681dff4
0x001fb17050b6f1fa 0x001fb2179eb2963a 0x001fb2ba2bdfa84a 0x001fb358217f4e18
0x001fb3f1a6c9be0c 0x001fb486e10cacd6 0x001fb517f3c793fc 0x001fb5a500c5fdaa
0x001fb62e2837fe58 0x001fb6b388c9010a 0x001fb7353fb50798 0x001fb7b368dc7da8
0x001fb82e1ed6ba08 0x001fb8a57b0347f6 0x001fb919959a0f74 0x001fb98a85ba7204
0x001fb9f861796f26 0x001fba633deee286 0x001fbacb2f41ec16 0x001fbb3048b49144
0x001fbb929caea4e2 0x001fbbf23cc8029e 0x001fbc4f39d22994 0x001fbca9a3e140d4
0x001fbd018a548f9e 0x001fbd56fbde729c 0x001fbdaa068bd66a 0x001fbdfab7cb3f40
0x001fbe491c7364de 0x001fbe9540c9695e 0x001fbedf3086b128 0x001fbf26f6de6174
0x001fbf6c9e828ae2 0x001fbfb031a904c4 0x001fbff1ba0ffdb0 0x001fc03141024588
0x001fc06ecf5b54b2 0x001fc0aa6d8b1426 0x001fc0e42399698a 0x001fc11bf9298a64
0x001fc151f57d1942 0x001fc1861f770f4a 0x001fc1b87d9e74b4 0x001fc1e91620ea42
0x001fc217eed505de 0x001fc2450d3c83fe 0x001fc27076864fc2 0x001fc29a2f90630e
0x001fc2c23ce98046 0x001fc2e8a2d2c6b4 0x001fc30d654122ec 0x001fc33087de9c0e
0x001fc3520e0b7ec6 0x001fc371fadf66f8 0x001fc390512a2886 0x001fc3ad137497fa
0x001fc3c844013348 0x001fc3e1e4ccab40 0x001fc3f9f78e4da8 0x001fc4107db85060
0x001fc4257877fd68 0x001fc438e8b5bfc6 0x001fc44acf15112a 0x001fc45b2bf447e8
0x001fc469ff6c4504 0x001fc477495001b2 0x001fc483092bfbb8 0x001fc48d3e457ff6
0x001fc495e799d21a 0x001fc49d03dd30b0 0x001fc4a29179b432 0x001fc4a68e8e07fc
0x001fc4a8f8ebfb8c 0x001fc4a9ce16ea9e 0x001fc4a90b41fa34 0x001fc4a6ad4e28a0
0x001fc4a2b0c82e74 0x001fc49d11e62de2 0x001fc495cc852df4 0x001fc48cdc265ec0
0x001fc4823bec237a 0x001fc475e696dee6 0x001fc467d6817e82 0x001fc458059dc036
0x001fc4466d702e20 0x001fc433070bcb98 0x001fc41dcb0d6e0e 0x001fc406b196bbf6
0x001fc3edb248cb62 0x001fc3d2c43e593c 0x001fc3b5de0591b4 0x001fc396f599614c
0x001fc376005a4592 0x001fc352f3069370 0x001fc32dc1b22818 0x001fc3065fbd7888
0x001fc2dcbfcbf262 0x001fc2b0d3b99f9e 0x001fc2828c8ffcf0 0x001fc251da79f164
0x001fc21eacb6d39e 0x001fc1e8f18c6756 0x001fc1b09637bb3c 0x001fc17586dccd10
0x001fc137ae74d6b6 0x001fc0f6f6bb2414 0x001fc0b348184da4 0x001fc06c898baff0
0x001fc022a092f364 0x001fbfd5710f72b8 0x001fbf84dd29488e 0x001fbf30c52fc60a
0x001fbed907770cc6 0x001fbe7d80327dda 0x001fbe1e094ba614 0x001fbdba7a354408
0x001fbd52a7b9f826 0x001fbce663c6201a 0x001fbc757d2c4de4 0x001fbbffbf63b7aa
0x001fbb84f23fe6a2 0x001fbb04d9a0d18c 0x001fba7f351a70ac 0x001fb9f3bf92b618
0x001fb9622ed4abfc 0x001fb8ca33174a16 0x001fb82b76765b54 0x001fb7859c5b895c
0x001fb6d840d55594 0x001fb622f7d96942 0x001fb5654c6f37e0 0x001fb49ebfbf69d2
0x001fb3cec803e746 0x001fb2f4cf539c3e 0x001fb21032442852 0x001fb1203e5a9604
0x001fb0243042e1c2 0x001faf1b31c479a6 0x001fae045767e104 0x001facde9dbf2d72
0x001faba8e640060a 0x001faa61f399ff28 0x001fa908656f66a2 0x001fa79ab3508d3c
0x001fa61726d1f214 0x001fa47bd48bea00 0x001fa2c693c5c094 0x001fa0f4f47df314
0x001f9f04336bbe0a 0x001f9cf12b79f9bc 0x001f9ab84415abc4 0x001f98555b782fb8
0x001f95c3abd03f78 0x001f92fda9cef1f2 0x001f8ffcda9ae41c 0x001f8cb99e7385f8
0x001f892aec479606 0x001f8545f904db8e 0x001f80fdc336039a 0x001f7c427839e926
0x001f7700a3582acc 0x001f71200f1a241c 0x001f6a8234b7352a 0x001f630000a8e266
0x001f5a66904fe3c4 0x001f50724ece1172 0x001f44c7665c6fda 0x001f36e5a38a59a2
0x001f26143450340a 0x001f113e047b0414 0x001ef6aefa57cbe6 0x001ed38ca188151e
0x001ea2a61e122db0 0x001e5961c78b267c 0x001dddf62bac0bb0 0x001cdb4dd9e4e8c0
""".split())

_WE = tuple(map(float.fromhex, """
0x1.164ec94bf5dc1p-50 0x1.0589d8b5d4119p-57 0x1.ad6b2495b4d2bp-57
0x1.19335a95b8dbap-56 0x1.522e6e54a2a73p-56 0x1.85090fbc27a80p-56
0x1.b38d1ef79b7ccp-56 0x1.decd8b76dbd98p-56 0x1.03bf049c65c3cp-55
0x1.170db24d6f670p-55 0x1.2980290da2633p-55 0x1.3b388fe3d6ecap-55
0x1.4c515c60bfe21p-55 0x1.5cdf89d024ac3p-55 0x1.6cf40f0a72bbdp-55
0x1.7c9cdda17d019p-55 0x1.8be5954d3606fp-55 0x1.9ad80552237d2p-55
0x1.a97c8be5d5203p-55 0x1.b7da5dddda3c4p-55 0x1.c5f7bd78c3f89p-55
0x1.d3da24df17c36p-55 0x1.e186678f1735ap-55 0x1.ef00ccf5f4faap-55
0x1.fc4d25d683209p-55 0x1.04b76ed6a7558p-54 0x1.0b348479b80fcp-54
0x1.119f38749f5afp-54 0x1.17f8ceb4bdfa0p-54 0x1.1e426e93e49e7p-54
0x1.247d26538ff2ep-54 0x1.2aa9ee123680bp-54 0x1.30c9aa526da4bp-54
0x1.36dd2e26d8202p-54 0x1.3ce53d12162a0p-54 0x1.42e28ca706748p-54
0x1.48d5c5f35e712p-54 0x1.4ebf86bcd0b93p-54 0x1.54a0629786f4dp-54
0x1.5a78e3db8befdp-54 0x1.60498c7dd2ecfp-54 0x1.6612d6d0c68e0p-54
0x1.6bd5362faa944p-54 0x1.71911797990bbp-54 0x1.7746e23077973p-54
0x1.7cf6f7c7e8172p-54 0x1.82a1b53fed599p-54 0x1.884772f2be1ecp-54
0x1.8de8850d0c52ap-54 0x1.93853bdfda244p-54 0x1.991de42ad1338p-54
0x1.9eb2c75ff03bfp-54 0x1.a4442be14884ap-54 0x1.a9d255396d261p-54
0x1.af5d844f224c9p-54 0x1.b4e5f794c979bp-54 0x1.ba6beb33f8f89p-54
0x1.bfef99359fe99p-54 0x1.c57139a70d29fp-54 0x1.caf102bc25adbp-54
0x1.d06f28ef0e6fbp-54 0x1.d5ebdf1d86b8dp-54 0x1.db6756a429057p-54
0x1.e0e1bf77c31fep-54 0x1.e65b483cf1044p-54 0x1.ebd41e5e21b62p-54
0x1.f14c6e202949fp-54 0x1.f6c462b57feb5p-54 0x1.fc3c26504a9a1p-54
0x1.00d9f119a3cd9p-53 0x1.0395df60db162p-53 0x1.0651f1c7276f8p-53
0x1.090e3bb4b0072p-53 0x1.0bcad03710137p-53 0x1.0e87c207a2f66p-53
0x1.114523917ac15p-53 0x1.140306f707dbep-53 0x1.16c17e1777ffbp-53
0x1.19809a93d2396p-53 0x1.1c406dd3d5283p-53 0x1.1f01090a9c4e2p-53
0x1.21c27d3b10e05p-53 0x1.2484db3c2a329p-53 0x1.274833bd0189fp-53
0x1.2a0c9748bcdaap-53 0x1.2cd2164a53b5dp-53 0x1.2f98c11031721p-53
0x1.3260a7cfb7611p-53 0x1.3529daa8a1ba1p-53 0x1.37f469a851af0p-53
0x1.3ac064ccfeffcp-53 0x1.3d8ddc08d336dp-53 0x1.405cdf44f09c4p-53
0x1.432d7e6466cd0p-53 0x1.45ffc94716ca7p-53 0x1.48d3cfcc883c4p-53
0x1.4ba9a1d6b18a4p-53 0x1.4e814f4cb45eap-53 0x1.515ae81d900fbp-53
0x1.54367c42cb5f8p-53 0x1.57141bc316f27p-53 0x1.59f3d6b4e9cf9p-53
0x1.5cd5bd4119335p-53 0x1.5fb9dfa56cf26p-53 0x1.62a04e3731a2ep-53
0x1.65891965c9b8cp-53 0x1.687451bd3ebeep-53 0x1.6b6207e8d3cdfp-53
0x1.6e524cb59a608p-53 0x1.714531150a9fbp-53 0x1.743ac61fa041cp-53
0x1.77331d177d130p-53 0x1.7a2e476b1240ap-53 0x1.7d2c56b7d17f7p-53
0x1.802d5ccce7277p-53 0x1.83316badfe62ap-53 0x1.86389596108e7p-53
0x1.8942ecfa40f54p-53 0x1.8c50848cc6094p-53 0x1.8f616f3fe1513p-53
0x1.9275c048e73e1p-53 0x1.958d8b235828ap-53 0x1.98a8e3940bbf4p-53
0x1.9bc7ddac7035dp-53 0x1.9eea8dcdde951p-53 0x1.a21108ad0592dp-53
0x1.a53b63556c690p-53 0x1.a869b32d0f30fp-53 0x1.ab9c0df81657ap-53
0x1.aed289dcaacffp-53 0x1.b20d3d66e8bb5p-53 0x1.b54c3f8cf2542p-53
0x1.b88fa7b324fb6p-53 0x1.bbd78db072610p-53 0x1.bf2409d2dfd85p-53
0x1.c27534e42e02dp-53 0x1.c5cb282eab1a4p-53 0x1.c925fd82323fbp-53
0x1.cc85cf395a56cp-53 0x1.cfeab83ed7180p-53 0x1.d354d4130f2adp-53
0x1.d6c43ed1ea3fep-53 0x1.da391538da50ap-53 0x1.ddb374ad2357fp-53
0x1.e1337b426509bp-53 0x1.e4b947c16a452p-53 0x1.e844f9af4237fp-53
0x1.ebd6b154a7678p-53 0x1.ef6e8fc5b9168p-53 0x1.f30cb6ea0bc7fp-53
0x1.f6b1498515ed0p-53 0x1.fa5c6b3efe1e5p-53 0x1.fe0e40add09d8p-53
0x1.00e377af911d4p-52 0x1.02c34ef11391bp-52 0x1.04a6b9e9224a3p-52
0x1.068dccf1126dbp-52 0x1.08789cf3aad0fp-52 0x1.0a673f733c819p-52
0x1.0c59ca900946fp-52 0x1.0e50550efcfb7p-52 0x1.104af660befcep-52
0x1.1249c6a92154ap-52 0x1.144cdec6f3a2bp-52 0x1.1654585c404c1p-52
0x1.18604dd6fae9ep-52 0x1.1a70da7a27820p-52 0x1.1c861a6782a5ap-52
0x1.1ea02aa9b3370p-52 0x1.20bf293f0f4a2p-52 0x1.22e33524fe550p-52
0x1.250c6e6403bbap-52 0x1.273af61c7daa6p-52 0x1.296eee942532bp-52
0x1.2ba87b445db51p-52 0x1.2de7c0e962d70p-52 0x1.302ce59265965p-52
0x1.327810b2aa7d0p-52 0x1.34c96b33bc965p-52 0x1.37211f88ca856p-52
0x1.397f59c345143p-52 0x1.3be447a8d8b83p-52 0x1.3e5018cadded0p-52
0x1.40c2fe9f5eeadp-52 0x1.433d2c9bd42f8p-52 0x1.45bed851bc92cp-52
0x1.4848398d39432p-52 0x1.4ad98a75da14cp-52 0x1.4d7307b1cb127p-52
0x1.5014f08b99508p-52 0x1.52bf871acaab2p-52 0x1.5573106f8a75ap-52
0x1.582fd4c1b4461p-52 0x1.5af61fa38e107p-52 0x1.5dc640388bd9ep-52
0x1.60a0897081879p-52 0x1.63855247b2e94p-52 0x1.6674f60c3f432p-52
0x1.696fd4a9748eep-52 0x1.6c7652f9a7b1ep-52 0x1.6f88db1f42507p-52
0x1.72a7dce5cd218p-52 0x1.75d3ce2bd71c3p-52 0x1.790d2b56b71f9p-52
0x1.7c5477d1476d3p-52 0x1.7faa3e96e1412p-52 0x1.830f12cc0bec3p-52
0x1.8683906687342p-52 0x1.8a085ce695babp-52 0x1.8d9e2823b3695p-52
0x1.9145ad2f37544p-52 0x1.94ffb34fc2a0ep-52 0x1.98cd0f18d1ad8p-52
0x1.9caea3a24d9eap-52 0x1.a0a563e49f178p-52 0x1.a4b2543e84c3bp-52
0x1.a8d68c2ad86eap-52 0x1.ad13382d845c4p-52 0x1.b1699c003b60ap-52
0x1.b5db15091ea0fp-52 0x1.ba691d276da5ep-52 0x1.bf154de4bef77p-52
0x1.c3e1641c2e0a7p-52 0x1.c8cf442c8c8f4p-52 0x1.cde0fecf2a97fp-52
0x1.d318d6b2738c5p-52 0x1.d87946fec3becp-52 0x1.de050af4ef19fp-52
0x1.e3bf26e190960p-52 0x1.e9aaf2af383c1p-52 0x1.efcc26750ea4ap-52
0x1.f626e9791f7a7p-52 0x1.fcbfe43f6c6e5p-52 0x1.01ce2b362ec2ep-51
0x1.056118bf58eefp-51 0x1.091c1cdcba54ep-51 0x1.0d031785d48a0p-51
0x1.111a8034392a6p-51 0x1.156786775442ap-51 0x1.19f03bcb3c2d6p-51
0x1.1ebbca0c9fa7cp-51 0x1.23d2bb659919fp-51 0x1.293f5ae49aaa5p-51
0x1.2f0e38a4411f0p-51 0x1.354ee27ccf75ep-51 0x1.3c14ec7c8b861p-51
0x1.4379766e41362p-51 0x1.4b9d7cd4751d1p-51 0x1.54ad83ccf73f6p-51
0x1.5ee7ae17313d2p-51 0x1.6aa676d4bbf72p-51 0x1.78750d6eac62fp-51
0x1.8939fe6f2ed19p-51 0x1.9e9dc0d487b85p-51 0x1.bc39e51da71fcp-51
0x1.ec9d9297ebb83p-51
""".split()))

_FE = tuple(map(float.fromhex, """
0x1.0000000000000p+0 0x1.e0545e5881137p-1 0x1.cd0a65081fff1p-1
0x1.be5007beb7b27p-1 0x1.b210f0ee67f2ap-1 0x1.a76baa562fae7p-1
0x1.9de9715556d9bp-1 0x1.95431c455aa39p-1 0x1.8d4a376d3d22fp-1
0x1.85de87806c5b8p-1 0x1.7ee8a2d243126p-1 0x1.7856e9b09d47ep-1
0x1.721bb5ba94b63p-1 0x1.6c2c3498418c6p-1 0x1.667fa6d4f5c06p-1
0x1.610edc1a7af66p-1 0x1.5bd3d694cac75p-1 0x1.56c9882da8773p-1
0x1.51eba1578899ap-1 0x1.4d366c151f8afp-1 0x1.48a6afb8ee069p-1
0x1.44399afa8e125p-1 0x1.3fecb2bb18b80p-1 0x1.3bbdc44e1d114p-1
0x1.37aada708ddd9p-1 0x1.33b23450e6318p-1 0x1.2fd23e345da5ep-1
0x1.2c098b61f4f24p-1 0x1.2856d111132bdp-1 0x1.24b8e228c50a3p-1
0x1.212eaba813ec8p-1 0x1.1db7319877b89p-1 0x1.1a518c71e3b25p-1
0x1.16fce6dce6feep-1 0x1.13b87bc33169cp-1 0x1.108394a1cc38dp-1
0x1.0d5d8812b1e2bp-1 0x1.0a45b8854d02ap-1 0x1.073b931ee3b7dp-1
0x1.043e8ebd26548p-1 0x1.014e2b160f324p-1 0x1.fcd3dfe214576p-2
0x1.f722d8ebfc5fap-2 0x1.f1886d1eb424dp-2 0x1.ec03d4b969d90p-2
0x1.e6945367dd351p-2 0x1.e139375e137fcp-2 0x1.dbf1d88a7210cp-2
0x1.d6bd97db9ed7ap-2 0x1.d19bde97e1a0bp-2 0x1.cc8c1dc40e092p-2
0x1.c78dcd983fb60p-2 0x1.c2a06d00ea583p-2 0x1.bdc3812aeeeb5p-2
0x1.b8f6951990b88p-2 0x1.b43939454806fp-2 0x1.af8b03428ef5fp-2
0x1.aaeb8d6fdf6e5p-2 0x1.a65a76aa30140p-2 0x1.a1d76207521f4p-2
0x1.9d61f695a3792p-2 0x1.98f9df2097ba8p-2 0x1.949ec9f9a8110p-2
0x1.905068c545d04p-2 0x1.8c0e704b75d39p-2 0x1.87d8984bc3f8cp-2
0x1.83ae9b5446138p-2 0x1.7f90369b6ce59p-2 0x1.7b7d29dc6801ep-2
0x1.77753735e72e3p-2 0x1.7378230b08deap-2 0x1.6f85b3e649e9dp-2
0x1.6b9db25e4e99cp-2 0x1.67bfe8fc60d9fp-2 0x1.63ec2424827e4p-2
0x1.602231fef5876p-2 0x1.5c61e2631ee6cp-2 0x1.58ab06c3aa9efp-2
0x1.54fd721bda3e7p-2 0x1.5158f8dde89f5p-2 0x1.4dbd70e26f91dp-2
0x1.4a2ab158bdad3p-2 0x1.46a092b80beefp-2 0x1.431eeeb1841e2p-2
0x1.3fa5a0230a14ep-2 0x1.3c34830abb285p-2 0x1.38cb747b17defp-2
0x1.356a528fcd0ddp-2 0x1.3210fc6312435p-2 0x1.2ebf520394270p-2
0x1.2b75346ae2262p-2 0x1.2832857457629p-2 0x1.24f727d4776fdp-2
0x1.21c2ff10b7effp-2 0x1.1e95ef77b09dbp-2 0x1.1b6fde19abc5ap-2
0x1.1850b0c191982p-2 0x1.15384dee291efp-2 0x1.12269ccba9fbap-2
0x1.0f1b852d9a66cp-2 0x1.0c16ef88f5333p-2 0x1.0918c4ee93e13p-2
0x1.0620ef05d90d2p-2 0x1.032f580797c2cp-2 0x1.0043eab93476ap-2
0x1.fabd24cff9354p-3 0x1.f4fe75c963e7ep-3 0x1.ef4ba0fe8e09bp-3
0x1.e9a48005940f2p-3 0x1.e408ed62f83a7p-3 0x1.de78c48224f39p-3
0x1.d8f3e1ae3eeb8p-3 0x1.d37a220b431fdp-3 0x1.ce0b638f6d09fp-3
0x1.c8a784fce1802p-3 0x1.c34e65db9afeep-3 0x1.bdffe67394435p-3
0x1.b8bbe7c72e4a5p-3 0x1.b3824b8dcef3ep-3 0x1.ae52f42eb5b0bp-3
0x1.a92dc4bc03c49p-3 0x1.a412a0edf5cbcp-3 0x1.9f016d1e4c512p-3
0x1.99fa0e43e1623p-3 0x1.94fc69ee692a1p-3 0x1.900866425bb79p-3
0x1.8b1de9f5062d5p-3 0x1.863cdc48c1af9p-3 0x1.816525094e7e6p-3
0x1.7c96ac8851baep-3 0x1.77d15b99f46fep-3 0x1.73151b91a2839p-3
0x1.6e61d63ee84eap-3 0x1.69b775ea6da28p-3 0x1.6515e5530d1acp-3
0x1.607d0fab06a31p-3 0x1.5bece0954c2b6p-3 0x1.57654422e78f5p-3
0x1.52e626d078c49p-3 0x1.4e6f7583cb6fap-3 0x1.4a011d8983096p-3
0x1.459b0c92dccc6p-3 0x1.413d30b386a9ap-3 0x1.3ce7785f8a905p-3
0x1.3899d2694d5c9p-3 0x1.34542dffa0cafp-3 0x1.30167aabe7d6ep-3
0x1.2be0a8504cf34p-3 0x1.27b2a72609940p-3 0x1.238c67bbbe878p-3
0x1.1f6ddaf3dca65p-3 0x1.1b56f2031d666p-3 0x1.17479e6f0ae78p-3
0x1.133fd20c9712fp-3 0x1.0f3f7efec1720p-3 0x1.0b4697b54b62fp-3
0x1.07550eeb7a5bep-3 0x1.036ad7a6e7f04p-3 0x1.ff0fca6cbea8dp-4
0x1.f758566190414p-4 0x1.efaf3ae83c33cp-4 0x1.e8146048eb9ccp-4
0x1.e087af561bafbp-4 0x1.d909116ad9398p-4 0x1.d198706914dd7p-4
0x1.ca35b6b80fd57p-4 0x1.c2e0cf42e10afp-4 0x1.bb99a5771268fp-4
0x1.b460254356548p-4 0x1.ad343b1655465p-4 0x1.a615d3dd938b7p-4
0x1.9f04dd046f428p-4 0x1.9801447336b70p-4 0x1.910af88e574b9p-4
0x1.8a21e835a533bp-4 0x1.834602c3bc4bap-4 0x1.7c77380d7a6f3p-4
0x1.75b5786193c1ep-4 0x1.6f00b488416b6p-4 0x1.6858ddc30b620p-4
0x1.61bde5ccadef7p-4 0x1.5b2fbed91bb3ep-4 0x1.54ae5b959d036p-4
0x1.4e39af290d929p-4 0x1.47d1ad343985cp-4 0x1.417649d25b10ep-4
0x1.3b277999b9f9ep-4 0x1.34e5319c6e718p-4 0x1.2eaf676948dd1p-4
0x1.2886110ce0570p-4 0x1.22692512c9d8cp-4 0x1.1c589a86fa340p-4
0x1.165468f755392p-4 0x1.105c88756ca50p-4 0x1.0a70f19871b3bp-4
0x1.04919d7f5c817p-4 0x1.fd7d0ba699676p-5 0x1.f1ef49944e834p-5
0x1.e679ea52eb2e5p-5 0x1.db1ce49315810p-5 0x1.cfd83031e794ap-5
0x1.c4abc640721e9p-5 0x1.b997a10bed985p-5 0x1.ae9bbc26a8084p-5
0x1.a3b81471bf138p-5 0x1.98eca827b7c4cp-5 0x1.8e3976e80776dp-5
0x1.839e81c3a396bp-5 0x1.791bcb4ab089ep-5 0x1.6eb1579b6af52p-5
0x1.645f2c726a041p-5 0x1.5a25513c5d2cap-5 0x1.5003cf296c5ebp-5
0x1.45fab14266b19p-5 0x1.3c0a047ff18ffp-5 0x1.3231d7e3f14aep-5
0x1.28723c956c00cp-5 0x1.1ecb45ff312d4p-5 0x1.153d09f19b3a1p-5
0x1.0bc7a0c7cd651p-5 0x1.026b2590dfaeep-5 0x1.f24f6c7af9890p-6
0x1.dffae7a517468p-6 0x1.cdd9054331b0cp-6 0x1.bbea150fa5870p-6
0x1.aa2e6e6924e9bp-6 0x1.98a670f132a48p-6 0x1.8752853ec9967p-6
0x1.76331da87fc96p-6 0x1.6548b72a24077p-6 0x1.5493da6ab0251p-6
0x1.44151ce87f0bep-6 0x1.33cd225315d84p-6 0x1.23bc9e1b93a32p-6
0x1.13e4554725f5fp-6 0x1.04452091e02f0p-6 0x1.e9bfdde89c7cep-7
0x1.cb6b9146e2757p-7 0x1.ad8fa5542c92dp-7 0x1.902ea688fa7bdp-7
0x1.734b6e6aa74f5p-7 0x1.56e930be416cbp-7 0x1.3b0b8c1516f62p-7
0x1.1fb69edb37671p-7 0x1.04ef2295fd7f9p-7 0x1.d5751fa745dc5p-8
0x1.a23e9d4974836p-8 0x1.7049f37ec3620p-8 0x1.3fa97cee322fdp-8
0x1.1073d69574043p-8 0x1.c58b381cd4b11p-9 0x1.6d888f3a1feffp-9
0x1.1946ba8e1a324p-9 0x1.92bb5540c3e25p-10 0x1.fb20af78dfcb9p-11
0x1.dc31c329f0b4bp-12
""".split()))
