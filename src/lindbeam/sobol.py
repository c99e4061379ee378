"""Scrambled Sobol points on numpy alone, equal bit for bit to scipy's.

`Sobol(d, seed).random(n)` returns the blocks that
`scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random(n)` returns, call
after call, for d <= MAXDIM:

- direction numbers: Joe & Kuo's primitive polynomials and initial numbers
  ("Constructing Sobol sequences with better two-dimensional projections",
  SIAM J. Sci. Comput. 30, 2008), extended to 30 bits by the recurrence of
  Bratley & Fox (ACM TOMS 14, 1988, Algorithm 659); the first dimension is
  all ones;
- scrambling: Matousek's linear matrix scramble (J. Complexity 14, 1998), a
  random unit lower-triangular binary matrix applied to the MSB-first bits
  of each direction number, then a random digital shift;
- points: Gray-code order, starting at the shift.

The random bits are those of `numpy.random.default_rng(seed).integers(2,
dtype=np.uint32)`, drawn in scipy's order: the (d, 30) shift bits first, then
the (d, 30, 30) matrix bits.  A few lines of Python below reproduce that
stream (numpy's SeedSequence and PCG64), so sampling never imports
`numpy.random`, whose import also loads `secrets`, `hashlib` and OpenSSL;
tests/test_sobol.py checks the stream against numpy's.
"""
from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

__all__ = ["MAXDIM", "Sobol", "direction_table"]

BITS = 30           # scipy's default: points are multiples of 2^-30
MAXDIM = 256        # rows of direction numbers held below
_MSB_FIRST = np.arange(BITS - 1, -1, -1, dtype=np.uint32)   # bit of the j-th leading digit

# Joe & Kuo's rows 1 .. MAXDIM - 1 (row 0 is the constant first dimension),
# copied from the direction-number file scipy ships: per row its primitive
# polynomial in 3 hex digits, then its deg initial numbers, the k-th (odd,
# below 2^(k+1)) in k // 4 + 1 hex digits.
_ROWS = (
    "00310071300b13100d1110131133019135d02511551102911550502f117b130371151010"
    "3b11130b03d13551f0431339073105b111f1515061131d1b31067111f070506d131f0d19"
    "0731155133d083137b170f67089137d0d0f4508f113d07233f091135901193509d131d09"
    "236b0a713151b3d1f0ab115b13293d0b91353030d450bf117d0113010c113750d133b0cb"
    "1139191d290d3135d1701370d513730d3b110e513130535450ef115517210d0f11177013"
    "d7b0f711790d3d310fd133503372111d131f1f0d31f512b135f1f3b3f6112d131b0b0b4d"
    "f914d131b1b2b470915f117f150b512d1631373191f414f1651311130b03cd1691159131"
    "51d9d171137b012159b918713330f094f4718d137b0f27771b1a911310b1f61e11c31113"
    "172b39b11cf1377111125471e713151b3f7bd51f511350b2b358521113551d112fad1df2"
    "1b133b03016d0904522111151127170515722d1315190f1f671f3233111b0b113f690b72"
    "59115b091d61e716b25f115f132d290717f26913771f1353890dd26f1113170f6fdf0532"
    "77115d1f0f37190a127d113d192f2757101287111b15357df9125295117b0b07394f1432"
    "a31155110d51030832a5117d170741fb1db2af1351092b039500b2b7113d1f0d0dff1e72"
    "bd1331053f595b07f2cf113301137b7f0ed2d11157171f25f31212db115b113575b71eb2"
    "f51115010d0dd11592f9113f01397307021313131b072b51cf0af31513110f1b3fff0313"
    "1f13531b3d69ab1313231153010339f9095331113505390f0d09f33b111b070b698d0e13"
    "4f13351b3b796510f35b13590b31333b0733611171172d7d471a336b11351705696d04b3"
    "6d117f070b43791c53731373090d1f1b1c137f131f1327275900f38511110121499117b3"
    "8f131f0f2b1d0d1e33b51173131b55831af3b91333052317c315d3c71337091b273b1293"
    "cb11390b110df109d3cd137f193921bd0d53d51171093749530d93d9133d131b17710f93"
    "e31353172b03fd1df3e911550b052d750d93fb13371d25217b093409131f050525e30df1"
    "cb41b117505273fff0871e74271317090757f90d925742d113d092f07e116b0f7465137d"
    "130d09430092e146f1355133b072913f2a548111531f3f0f2b0cf31548b11790d27032f1"
    "f10a94c513171511611319f3894d71371031f476f0a507f4e7115b013d53770cb34f4f31"
    "33d093d136102f0234ff11770f1d3f5f1a11d550d1319190947390d5181519135d1f2f65"
    "3902715552311331f397dad16d22753113710d39439d1c32c353d1117150d69591ad3c55"
    "43115911332d7709d08d55713770d2d5b090812e556b13711739438d09723b585113b112"
    "f5d6b17709d58f13350b152b330a939359711530f3765431c72715a1135901171d2f1592"
    "535c7137705311d9b14324d5e5133705297f3d1052cd5f71377111775430813f15fb113d"
    "0b2715cf07b13161311391d035f2f0e70496151319011d75151b9103625131d15277dd31"
    "b72d36371173113f7359031305643137d0b21656b03f04964f11550d393f871b50b165b1"
    "1371b3f5d2f1a11e36791131171d01bf03101767f113f193709650db25f6891317071333"
    "fb1891336b513331937114b1510036c1111d1911412d1df19d6d311771b3163a10d52d76"
    "df135117052b290fb3596fd13370b3d275717f343717113f0d071d071f939b71d1371051"
    "f2f9d1bd1f57211137012b099307325d739133d050177d31c73e974711350d1303f304b3"
    "4b74d137701135bf916524d755111901196dc511719b759131f17393b870bf04b763115f"
    "1d1527fd17f15d77d1335132d3d970c73d578d135d093d6b8d08d001793131b1b1955691"
    "353d37b1133b130773df15d02b7db117915277b1511339f7f3117d0f292ff312f1b57f91"
    "11707030f631992cf805133f1b31717b0710431d5817137b031757a90771e30c782b115f"
    "07116de50b30d52e582d115d0b11198719322d5998471311013d43d70bd3b14db863117d"
    "112109dd1ad0d968f865113b1b030f5d05d36141987113771929792317517b60b87b1339"
    "0b232dcd0f100903b88d1317033307b10353cf05989511351b0171e712b2f735d89f133f"
    "191d05ff08b37b7ef8a913110d096dc11a305f0118b1117903071d290873473638cf1179"
    "19317bd907138d0d78d11173170f2b850d91473858e111330d353f7b1dd2c756b8e7113f"
    "071d4b770b53bd0f78eb111b1b196d9710b0635b58f5137f0505359100b2d55dd90d1371"
    "092b47e509d25f72b913133d1901051b1d715d07f9251111172509dd10d3816959291133"
    "1f1d33131372297b193b1375053711271db29f5f993d117101232f1b1b518b6639451173"
    "0d172b8714708b185949137309195b191ad0db20195111350d1d77c911509d7fb95b1353"
    "1d390d110a72e340797313351d155f1b0ff2a75fb975137f0905154703d3c14b197f135d"
    "0f39215d1cb3630df983111f112b7fbf0430b143198f111f170715c704b12564b9ab137d"
    "0f2715950412e513f9ad137b170d65591152072c79b9137f131b55cb1b90617679c71313"
    "1d19159b00b0bf0c59d911751b0b51651c92a36979e51315190541c102923730d9f71315"
    "0b0f714d19b2b7457a0111390b3577ab0371291fda0711110b27718b0a515b253a13137b"
    "0911650d0511456c5a151311152b730907138b285a291173091975c509f1d71dba491319"
    "0b1539cf1e526567da6111771b3731df0590555f3a6d115313292d331bf12b54ba79131d"
    "0121758f1390bb431a7f1177050b41611791795dda85131115235f410630174d7a911159"
    "03255fa70731a9363a9d133d01251bbd0512a7305aa7113b013d63e91ad3c9031aab1117"
    "193f63a50f5319477ab3115b0b2b374104711b111ab51155090365fb16317b64bad5111f"
    "153f55630312ed537adf115d1b09792b0ff2cb121ae913151b1311df04d23b587aef1153"
    "0d3b7dfb0c32276c9af1133f0d1b31691853cb2f3afb135f172b236b1bf2fb0fdb03135b"
    "150311271f1197263b09117d0f1f71110171fb7cbb11117f030f1f991a704f1f7b331179"
    "131917ab1f939b7c5b3f1159151b79df0850572b9b41115509136b6313f2fd5b5b4b1133"
    "131903650ab2d90bbb5911310d17555d1230d1025b5f111f19194dfd14d3b3431b651139"
    "111d372f0ff1317f5b6f13391d3f09671e93ab5f3b7d137f071f59af171153253b87137d"
    "190547cf0fb16f299b8b133315194b2301f141643b9311190b01410500b149217b951153"
    "130d112b17b1e517fbaf135d0d0955931e931346dbb71311053325810c31296f7bbd113f"
    "13393bb51c72b97f1bc913711b0941911450bd0c9bdb131f1f1713051e524521bbdd117d"
    "0b0f41530b934f33fbe713570737490f12f1ff771bed135907152d0f18d181255c0b1373"
    "170d49dd1ff3734f1c0d113b013349b90213cf5a1c191339133b152715302508fc1f1171"
    "1f2113a707527b27fc571113050d3b5316315d7afc6111151303358506135f3d7"
)


@lru_cache(maxsize=1)
def direction_table() -> tuple[np.ndarray, np.ndarray]:
    """Polynomials (MAXDIM,) and initial numbers (MAXDIM, 18), laid out as in
    scipy's `_sobol_direction_numbers.npz`; read-only."""
    poly = np.zeros(MAXDIM, dtype=np.int64)
    vinit = np.zeros((MAXDIM, 18), dtype=np.int64)
    poly[0] = vinit[0, 0] = 1
    s, i = "".join(_ROWS), 0
    for d in range(1, MAXDIM):
        poly[d] = int(s[i:i + 3], 16)
        i += 3
        for k in range(int(poly[d]).bit_length() - 1):
            vinit[d, k] = int(s[i:i + k // 4 + 1], 16)
            i += k // 4 + 1
    poly.flags.writeable = vinit.flags.writeable = False
    return poly, vinit


def _direction_numbers(d: int) -> np.ndarray:
    """The (d, BITS) direction numbers, column j shifted to bit BITS-1-j."""
    poly, vinit = direction_table()
    v = np.ones((d, BITS), dtype=np.int64)
    for r in range(1, d):
        p = int(poly[r])
        deg = p.bit_length() - 1
        row = [int(x) for x in vinit[r, :deg]]
        for j in range(deg, BITS):
            new = row[j - deg]
            for k in range(deg):
                if (p >> (deg - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[r] = row
    return (v << _MSB_FIRST).astype(np.uint32)


class Sobol:
    """A scrambled Sobol sequence in [0, 1)^d; `random(n)` draws its next n
    points, n >= 1."""

    def __init__(self, d: int, seed: int):
        if not 1 <= d <= MAXDIM:
            raise ValueError(f"Sobol dimension d={d} outside [1, D={MAXDIM}]: direction "
                             f"numbers are held for the first D={MAXDIM} dimensions only")
        bits = _random_bits(seed, d * BITS * (1 + BITS))
        pow2 = 2 ** np.arange(BITS, dtype=np.uint32)
        self._quasi = bits[:d * BITS].reshape(d, BITS) @ pow2
        lms = np.tril(bits[d * BITS:].reshape(d, BITS, BITS))
        lms[:, np.arange(BITS), np.arange(BITS)] = 1
        # the matrix times the MSB-first digits of each direction number, mod 2
        digits = (_direction_numbers(d)[:, :, None] >> _MSB_FIRST) & 1
        digits = np.einsum("dpi,dji->djp", lms, digits) & 1
        # (BITS, d): the scrambled direction numbers of one Gray-code bit per row
        self._v = (digits << _MSB_FIRST).sum(axis=2, dtype=np.uint32).T.copy()
        self._count = 0

    def random(self, n: int) -> np.ndarray:
        """The next n points, an (n, d) float array."""
        k = np.arange(max(self._count, 1), self._count + n)
        # point k is point k - 1 with the direction of k - 1's lowest zero bit xored in
        pts = np.bitwise_xor.accumulate(self._v[_lowest_zero_bit(k - 1)], axis=0) ^ self._quasi
        if self._count == 0:
            pts = np.concatenate([self._quasi[None, :], pts])
        self._quasi = pts[-1]
        self._count += n
        return pts * 2.0 ** -BITS


def _lowest_zero_bit(i: np.ndarray) -> np.ndarray:
    """Position of the lowest zero bit of each i >= 0."""
    return np.frexp(~i & (i + 1))[1] - 1


# numpy's SeedSequence (4-word pool) and PCG64 (XSL-RR 128/64), as far as
# `default_rng(seed).integers(2, dtype=np.uint32)` needs them
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: each call xors in, then multiplies by, the next
    of its constants."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's initial state and increment for an int seed >= 0, as
    `PCG64(SeedSequence(seed))` sets them."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer seed, got {seed}")
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)         # INIT_A, MULT_A
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    # generate_state(4, uint64): 8 words, paired low word first
    out = _hasher(0x8B51F9DD, 0x58F38DED)             # INIT_B, MULT_B
    w = [out(pool[i % 4]) for i in range(8)]
    w = [w[k] | w[k + 1] << 32 for k in range(0, 8, 2)]
    # set_seed takes the state seed w0:w1 and the stream seed w2:w3, high word
    # first; it steps from state 0 (giving inc), adds the state seed, steps again
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    return ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _MASK128, inc


def _random_bits(seed: int, n: int) -> np.ndarray:
    """The first n values, each 0 or 1, of `numpy.random.default_rng(seed)
    .integers(2, size=n, dtype=np.uint32)`."""
    state, inc = _pcg64_seed(seed)
    raw = bytearray()
    for _ in range((n + 1) // 2):
        state = (state * _PCG_MULT + inc) & _MASK128
        raw += state.to_bytes(16, "little")
    lo, hi = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).T
    # an output is lo ^ hi rotated right by hi's top 6 bits; it gives two
    # 32-bit draws, low half first, and integers(2) keeps a draw's top bit
    # (Lemire's method never rejects at range 2): output bits 31 and 63
    x, rot = lo ^ hi, hi >> 58
    bits = np.stack([x >> ((rot + 31) & 63), x >> ((rot + 63) & 63)], axis=1) & 1
    return bits.reshape(-1)[:n].astype(np.uint32)
