"""Golden feature digests: extraction output pinned bit for bit.

SHA-256 over the feature names and the little-endian float64 matrix of
``FeatureExtractor(config).transform`` for every Table 2 column (A-G) and
the extended feature set, on a fixed archive slice: six BeetleFly
training series plus the same six rounded to one decimal (tie-heavy
inputs, the adversarial regime for visibility tie-breaking).

The archive slice is 128 points long, so every series there has four
scales.  :data:`GOLDEN_LENGTHS` pins the same digests over a seeded
random walk, the walk rounded to one decimal and a constant series at
lengths 4, 17, 33, 64, 257 and 1000 (1, 1, 2, 3, 5 and 6 scales under
the default ``tau``).  ``None`` marks a config that yields no scale at
that length, whose extraction must raise.

A change of any digest means feature values changed.  That must come
with a bump of ``FEATURE_CACHE_VERSION`` (cached features would be
stale) and new digests; a performance change must leave them alone.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import HEURISTIC_COLUMNS, FeatureConfig
from repro.core.features import FeatureExtractor
from repro.data.archive import load_archive_dataset

GOLDEN = {
    "A": "18ad4b172b1e0858bdfae49a4d1cf96afec81010b9514869c1a9a039a34072fc",
    "B": "0f763126a0aeb9a860368717bb20036f3fec048710a8b17ba07a96eaf8677cf4",
    "C": "e3e2cd5bc213dae26784388fa3f8ec31e3224f76cef2222a97d6559b5a97637a",
    "D": "7616446bd49da2d5183a32ac3ed1618a60ee01cb8ba64d76df77b9e96abf0b8e",
    "E": "ac07ac8ba31c01302de6aeb12a5bbc0c41db56e55fef136f1b66819d8e546280",
    "F": "b1fc5409cfd5d6bc33b113fb1538882eff65f017ae6165db421ed9474ead9f40",
    "G": "5ade54761f09c4d134a5c531cf1702c816513ce33845162bbfa87b276da5793a",
    "extended": "45f8f6be3eadd835ed11c0dd278a6275ce1088773b6f203c646118e3b40e617f",
}

GOLDEN_LENGTHS = {
    4: {
        "A": "abbaceabed3812b72bd68c7e1f100648386337f27794797d9e8dbeb6548ac487",
        "B": "357a386870d15fd0813f346160058e07beec5e542ee1eca10109759e27f4726b",
        "C": "73e44f6da2899cb3f750214be33d49634eec796195d07947828e49bf0dd4f77a",
        "D": "b13067f536853135da2f631d870d6f2e318916cf25329be1d87ab7a7bc69de0e",
        "E": "c8e62a331ce03e91d683de8193f99f314eb9e033940c533d1ecc7b77ec510ed7",
        "F": None,
        "G": "c8e62a331ce03e91d683de8193f99f314eb9e033940c533d1ecc7b77ec510ed7",
        "extended": "bdca5414f5a087c5de786ff5b028168b6d4d554e5f0d34c66aa24c82977d9109",
    },
    17: {
        "A": "4af0db6981eb534892ecb41fdc4183752fa890d3d69a98b915cfc10f0808841a",
        "B": "b745553af6069843d52d788db5177f4bea37dbcfb815f761753674b053f6170b",
        "C": "450a7b61b8f545c4071bc4c39d6a210615a493709824e1441ba8eb0368d290e5",
        "D": "67e1b60a3df6f2c59b37460a653a630aedb037822dd1f438203579dd1e2ef10e",
        "E": "54b103a02679f02db445f6fc3aa676652055ead7e893f09dd5e5c1d4336f4152",
        "F": None,
        "G": "54b103a02679f02db445f6fc3aa676652055ead7e893f09dd5e5c1d4336f4152",
        "extended": "6fcfd5df43f96ce8402df9873123dd1f905f8a131839edf205fd33717edb84cb",
    },
    33: {
        "A": "1436099a26204dceebb85e65f5ba67ed9c20c8595791c454784d6d41443f19fe",
        "B": "3bc541ffd9e191c46d637985e3cad30b73df30605dc6ddcb00dac3e34fc48b6c",
        "C": "2b7850b457439e9d94412d595f7d4f856704827ad0ee8a6d336a20b8236bcef3",
        "D": "16d451437040dabf5ef29ccf1ed4cc4132101375db9e0bd3ea416dd5c4e56ed8",
        "E": "98d2e72329afa7551555dd4df961bb7ac891030f2144a139a55d17d96b140584",
        "F": "c390aea9e18ff8ad973bc45ded9dc9d07df00eb331dc6b5ae780ff1415f22822",
        "G": "5f244cc09b37408611984129e92dee6dd86f61475829c60ecdb17b72e8eb5cb3",
        "extended": "9800673699d7aed138a65d75982115a7831b30f7df99547d84590bd3be9a5d92",
    },
    64: {
        "A": "99078a2a5f8f4203728679b7a4e9e3cf09907f78591aadcdc4041ad34ecdfac6",
        "B": "806c4efde15012263833228ff211be2d853c37d2cc2beab0fd87f19143e3b503",
        "C": "8d38c93b11b6631494c91572791ad1501af0ad00ff2635735a58cc1ddbc79357",
        "D": "ee1b700ea751772ca78fb4d96f065966b32eeb54ffbf5321f6f6d3370b3825d8",
        "E": "3367e6d6d5c48babef2299e874e2021ac577395d73e4925f47d23fee758f657e",
        "F": "02b4c2a04bd13c249018cf8d34c1d087e694679204a68054ee78f4ae8d2eea05",
        "G": "eac7582fe88e9c625a126a3b24e114136af4d9d28a6160b23c16912b09b47d31",
        "extended": "1dfdc69c05f8cd45447456000f8c9d53305b947a3a42ef9e9da67f2a6f4eebf8",
    },
    257: {
        "A": "63c9e847f45fd1e5a83988887dc36611693ad9af4dd1332cb089664a456217a1",
        "B": "c7fa67466473d9c88ca40c335dc294163c22ecee6bbf08218798b8b47567feb6",
        "C": "b00fd93977348414cc5042d135963d699addb287cee2b9321b26fc010f1459f8",
        "D": "ff8231f6b41c0a0518915fe477380300dba8c68f615619058355f6fbb7b44208",
        "E": "022580c9e89cc1a5aa0386d803470912ed59b37e9fe566c43a49d2a382e39a41",
        "F": "162f108a1f591ce62e979e2e0f94745be7d8ce17d4ee5104bfa173d916e42322",
        "G": "85d1db460615c9a26e247933d9092b6521b57133a4877302134342e2db257904",
        "extended": "1282444cad16261033960e88f0e9e0ea3c8d995f77d2fa2599268b4d4701238a",
    },
    1000: {
        "A": "3ae63c074447e8fab1bc0bf2b665b738e1b070cea54231a396d2c49422619a1d",
        "B": "c17c4b58eb456b8d780780e72e5273cf9404542abf7250a1489d50484816cd94",
        "C": "9e546d2f5ffa1cb68dae1125726f9a6049f2f17513e0315ec588446683962db6",
        "D": "6778c330b1fa0526a307ef9d304b70b22c29094f6914fcc7bfaf087453fedd3c",
        "E": "8d73b741e89d7bcc1762c071e1041a9bd41578bf88ef3cc7b7810454a814fbd8",
        "F": "587a81bb3216d4db9bcf1d6eb72849082d4ccbfbd26ca0c90bd3cc97daeeed4b",
        "G": "693ee13e10ff6b3d929d7e511178712433df863d448555c524887c4e0404177a",
        "extended": "64dda7ebbb83863b4ba0f11853f4d2eeb1bfed2485baada85956be059a61e6ff",
    },
}

CONFIGS = {**HEURISTIC_COLUMNS, "extended": FeatureConfig(features="extended")}


@pytest.fixture(scope="module")
def archive_slice() -> np.ndarray:
    X = load_archive_dataset("BeetleFly").train.X[:6]
    return np.concatenate([X, np.round(X, 1)])


def feature_digest(extractor: FeatureExtractor, X: np.ndarray) -> str:
    matrix = extractor.transform(X)
    digest = hashlib.sha256()
    digest.update("\n".join(extractor.feature_names_).encode())
    digest.update(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_cache_version_unchanged():
    from repro.core.batch import FEATURE_CACHE_VERSION

    assert FEATURE_CACHE_VERSION == 2


@pytest.mark.parametrize("column", sorted(GOLDEN))
def test_feature_digest(archive_slice, column):
    assert archive_slice.shape == (12, 128)
    assert feature_digest(FeatureExtractor(CONFIGS[column]), archive_slice) == GOLDEN[column]


def length_block(n: int) -> np.ndarray:
    """Random walk, the walk rounded to one decimal, and a constant."""
    walk = np.cumsum(np.random.default_rng(n).standard_normal(n))
    return np.stack([walk, np.round(walk, 1), np.full(n, 2.5)])


@pytest.mark.parametrize("n", sorted(GOLDEN_LENGTHS))
@pytest.mark.parametrize("column", sorted(CONFIGS))
def test_feature_digest_by_length(column, n):
    expected = GOLDEN_LENGTHS[n][column]
    extractor = FeatureExtractor(CONFIGS[column])
    if expected is None:
        with pytest.raises(ValueError, match="yields no scales"):
            extractor.transform(length_block(n))
        return
    assert feature_digest(extractor, length_block(n)) == expected
