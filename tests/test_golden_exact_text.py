"""Golden bytes of the exact arc sets.

Each case is pinned by the sha256 of what a user sees: the ``E_n:`` line
that ``recurlab exact`` prints and the ``--set-out`` text, for several n at
one radius; for the eventually-always sets, the measure, the profile and
the ``to_text()`` of the materialised set. The digests were taken from the
``Fraction`` arcs that the integer arcs replaced. The large sets span
several text blocks and each integer width of the text writer (scales
below 2^32, below 2^64 and above); their digests were taken from the
per-endpoint text writer that the array writer replaced.
"""

import hashlib

import pytest

from recurlab.cli import main, parse_sequence
from recurlab.exact_sets import build_ear_sets, ear_truncated_A

RADII = ("0", "1/12", "1/5", "3/7", "1/2")
NEG2 = "piecewise:0,1/2,-2,1;1/2,1,2,-1"
NEG4 = "piecewise:0,1/4,-4,1;1/4,1,4/3,-1/3"
BENCH = "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2"
# (system, exact's extra flags, the n's)
SYSTEMS = {
    "closed-2": ("circle:2", (), (1, 2, 3, 9)),
    "closed-3": ("circle:3", (), (1, 2, 5)),
    "closed-neg2": ("circle:-2", (), (1, 2, 3, 8)),
    "closed-5": ("circle:5", (), (1, 2, 3)),
    "pw-doubling": ("doubling", ("--piecewise",), (1, 2, 3, 6)),
    "pw-circle3": ("circle:3", ("--piecewise",), (1, 2, 3)),
    "pw-bench": (BENCH, ("--piecewise",), (1, 2, 3, 5)),
    "pw-neg2": (NEG2, ("--piecewise",), (1, 2, 3, 5)),
    "pw-neg4": (NEG4, ("--piecewise",), (1, 2, 3)),
}
EAR_SEQS = ("powerlaw:1,2", "powerlaw:1/4,1")
# (system, exact's extra flags, n, r) of one large set each
LARGE = {
    "closed-2-n16": ("circle:2", (), 16, "1/12"),
    "closed-3-n9": ("circle:3", (), 9, "1/20"),
    "pw-bench-n14": (BENCH, ("--piecewise",), 14, "1/12"),
    "closed-2-n14-scale-2^54": ("circle:2", (), 14, f"1/{2**40}"),
    "closed-2-n14-scale-2^84": ("circle:2", (), 14, f"1/{2**70}"),
}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()


def exact_digest(system: str, flags, ns, r: str, tmp_path, capsys) -> str:
    out = tmp_path / "set.txt"
    parts = []
    for n in ns:
        rc = main(["exact", "--system", system, "--n", str(n), "--r", r, *flags,
                   "--set-out", str(out)])
        assert rc == 0
        [line] = [l for l in capsys.readouterr().out.splitlines() if l.startswith("E_")]
        parts += [line, out.read_bytes()]
    return _digest(parts)


def ear_digest(a: int, seq: str) -> str:
    s = parse_sequence(seq)
    parts = []
    for m in (1, 2, 3, 5, 7):
        res = build_ear_sets(a, m, s)
        parts += [str(res.measure), str(res.arc_count), res.set.to_text()]
    for n0, M in ((1, 4), (3, 8), (4, 11)):
        res = ear_truncated_A(a, n0, M, s)
        parts += [str(res.measure), repr(res.profile), res.set.to_text()]
    return _digest(parts)


GOLDEN = {
    ("closed-2", "0"):
        "d649a9c1b807b4d23b82c9e1cb4cebc93de0b18330fa419fb3cd3e64829086f9",
    ("closed-2", "1/12"):
        "ae50f2337dbedeef4757856718eb6c11ddefc899ad04e2c0d4d77310f1cfa3fa",
    ("closed-2", "1/5"):
        "b049cca5d3ac2fd6f29b057e5faf91a87a28fab8d683daa16ee89c49bc779b95",
    ("closed-2", "3/7"):
        "00b29969a965dd5b9b3440837d49e3172d0604a79038832f1b14b201bb9c51d7",
    ("closed-2", "1/2"):
        "d830badca60b94d0f63109b8bdca7200c833266a59e67ebb1b4b8d75ccf047ea",
    ("closed-3", "0"):
        "d2922d380c7790c4c03778a4da827847514b4ff17e4fb8577da11fb1d718e5c5",
    ("closed-3", "1/12"):
        "af2141b0f1c2d959f1be719dc2b79f1bb98c2676b3d5c80700cdccc7acdf8172",
    ("closed-3", "1/5"):
        "46d645d8e0543f7aca0589229fcb083bdf3a6e7c68b07b4b88e4048decd104b1",
    ("closed-3", "3/7"):
        "ff8281c6e54eb85ba78b164ee2b1acdefb7df46a536ce8730aba0b81182e5ef3",
    ("closed-3", "1/2"):
        "9e5ac6c2fd84b223bbf0114a25ffbd2d2401f912965d1e9fcc6e06969b4c836f",
    ("closed-neg2", "0"):
        "3527dd79e3484ac04dcdb5ff7b23b0a123105f55d22fe399ad6295852e180a45",
    ("closed-neg2", "1/12"):
        "17a3378987a609eb9a3e9164959b356c0d4c6d3e0fbbe92be2cd8c8da5e73aa0",
    ("closed-neg2", "1/5"):
        "46e6f74c0319a4081a1bafec7d6da43a58afaa2550220965a7d9614fd9e9f124",
    ("closed-neg2", "3/7"):
        "5686472b48a50c79f568d7a716e75f41058a728f386c5063b7b228c922e16611",
    ("closed-neg2", "1/2"):
        "053a49569cead7a96f54c7d3e6c84181ba9086cbb2b4e1b43ef8f0cd1da7e342",
    ("closed-5", "0"):
        "b919a913820a59bfc34af1615c6a522946eb4aa75b8a26df6ac55127a267dede",
    ("closed-5", "1/12"):
        "f5570f9074f546ca3cdad699b8804d614f2a862df7448b9c2adbbd33ee886e28",
    ("closed-5", "1/5"):
        "f534b94e90a2b6f03c144319b13c6cbdedbc39ad757c3c2b97bdad937865fd8c",
    ("closed-5", "3/7"):
        "6cae5bb6cd9d3a4b4c2eb94f06f7a61d7d778c64d1c757e24e5f3a26e3d44b16",
    ("closed-5", "1/2"):
        "c6a78fbf5c2d1e649693c9891ba63effc6c6525f3ed399aa568b3f07af5fa76d",
    ("pw-doubling", "0"):
        "b6167955aac48bc5807d6a6b12b52dacde6a559ad1905659f1489d6454e6d694",
    ("pw-doubling", "1/12"):
        "153a999dd24d5cd4eae43ba38810e4364a89576c969728f94245d6ed319d2801",
    ("pw-doubling", "1/5"):
        "41030eecd0985740078192421fcd1faec293519bf396c4ebc52b36e5129d3c85",
    ("pw-doubling", "3/7"):
        "9f7f3b21a5b69d47af06aca14f4dc1a4415aae10757ddb884958c11c045ded09",
    ("pw-doubling", "1/2"):
        "c22a7a72d9ad9292b465c7d4fa1a78bebdfaf6f01f49be11a88387c88a65e83d",
    ("pw-circle3", "0"):
        "b919a913820a59bfc34af1615c6a522946eb4aa75b8a26df6ac55127a267dede",
    ("pw-circle3", "1/12"):
        "828d2d86a0cd4f9a62e632d4e2a85fbbcb53afb8673084fced184a1f7055c1d9",
    ("pw-circle3", "1/5"):
        "3b222955fd58750663b5e6cd95ed0ff61d516c5c234ead38b6e6ea5a493baaa1",
    ("pw-circle3", "3/7"):
        "2c0708672930c266e8916e91ab6af7a053b8df346297b60a1f739af76f12ac77",
    ("pw-circle3", "1/2"):
        "c6a78fbf5c2d1e649693c9891ba63effc6c6525f3ed399aa568b3f07af5fa76d",
    ("pw-bench", "0"):
        "27e2c30850dfaf5bda2339249be4e3071bca4f36d61cb745d31f2a9770f054bf",
    ("pw-bench", "1/12"):
        "a490aef6e04649a566e664a61ba62945cbd23ca3c052e3aa093a86b182dbdeb7",
    ("pw-bench", "1/5"):
        "d3aac51e8d7bc5671dbef484423d042bc9d852f5ea001738ba312d6e9b27898e",
    ("pw-bench", "3/7"):
        "e72154fad1b88d9ae1cfbede524d539bb885039dffb7c3498371b03f483684de",
    ("pw-bench", "1/2"):
        "01fccbdec816fa3a2a21fae5539e78fb6ac0d200b205deea4e4e6af6204c7bd5",
    ("pw-neg2", "0"):
        "27e2c30850dfaf5bda2339249be4e3071bca4f36d61cb745d31f2a9770f054bf",
    ("pw-neg2", "1/12"):
        "a8410d2f347c0e3a7cdfa211ea1135cd5b8ab61089c81b255954a157cc3afe8c",
    ("pw-neg2", "1/5"):
        "573cc5ac8cfaaf4c29ba5cedd7070c1d08c332c2c184ae269ee21bd6f60ba92a",
    ("pw-neg2", "3/7"):
        "223b300de44e1b0ab632b1665500b95ade9f20ac1a8306545766daa4b80b955c",
    ("pw-neg2", "1/2"):
        "1c34d11c96ce2a5ef7b402b29879ee517858d389a351c118132fe09120705478",
    ("pw-neg4", "0"):
        "b919a913820a59bfc34af1615c6a522946eb4aa75b8a26df6ac55127a267dede",
    ("pw-neg4", "1/12"):
        "0e01de575eb5682078e7856de329041bcf0b737a551ba6d9ed7c415596165596",
    ("pw-neg4", "1/5"):
        "177e41fddb341678c3093905993b6dd4bffae3facded3235471074292aabbf9a",
    ("pw-neg4", "3/7"):
        "b5bfda9b59da7a3648c3e1bc7e34543867c48b63d25ce5fe99e040fecf8ab79f",
    ("pw-neg4", "1/2"):
        "6d2f52111ec64d242959adefd2359b65d61994e846c610ae08eff7941552ea7c",
}

LARGE_GOLDEN = {
    "closed-2-n16":
        "a2b80c8428d4aee8e7e8646ffe1eb6ad9a99a4e7a25fdf99d6f934028018eb0f",
    "closed-3-n9":
        "f743d0fe226c007145b112cd170b934b107c328e03261d11b99eb69715fe7cbd",
    "pw-bench-n14":
        "2b90d4a2dc5335f0d0e58c599217353d51f751cb5cd6042295e187703c3be30a",
    "closed-2-n14-scale-2^54":
        "9abfc895179556103e0e502b63745961acecdc4b41ae88700c5eca7f325d6860",
    "closed-2-n14-scale-2^84":
        "b8309926fcfb74ae983f51f3227e302ae026eb28d7aa30db2eb806cc188f90cf",
}

EAR_GOLDEN = {
    (2, "powerlaw:1,2"):
        "6ee4a9bed212c0d8f871b09a4c6b2d091875bfb5076df82f4ad3300ac8869ac1",
    (2, "powerlaw:1/4,1"):
        "de440c66357cbffff53724a9cfc31eee764004332db0ec772afa230486597d35",
    (3, "powerlaw:1,2"):
        "6f9cd697d52bbf61604803f1c0770b4bdabbadfb81e477e202fa78e9356eccf2",
    (3, "powerlaw:1/4,1"):
        "78bd67fb8c8ec1ecbb08838f129f69b9346495587e4c00e573e99a663b2b9f3d",
}


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("r", RADII)
def test_exact_text_is_unchanged(name, r, tmp_path, capsys):
    system, flags, ns = SYSTEMS[name]
    assert exact_digest(system, flags, ns, r, tmp_path, capsys) == GOLDEN[(name, r)]


@pytest.mark.parametrize("r", RADII)
def test_piecewise_maps_compose_without_the_flag(r, tmp_path, capsys):
    # a map with no closed form gets branch composition unasked
    system, _, ns = SYSTEMS["pw-bench"]
    assert exact_digest(system, (), ns, r, tmp_path, capsys) == GOLDEN[("pw-bench", r)]


@pytest.mark.parametrize("name", LARGE)
def test_large_exact_text_is_unchanged(name, tmp_path, capsys):
    system, flags, n, r = LARGE[name]
    assert exact_digest(system, flags, (n,), r, tmp_path, capsys) == LARGE_GOLDEN[name]


@pytest.mark.parametrize("a", (2, 3))
@pytest.mark.parametrize("seq", EAR_SEQS)
def test_ear_text_is_unchanged(a, seq):
    assert ear_digest(a, seq) == EAR_GOLDEN[(a, seq)]
