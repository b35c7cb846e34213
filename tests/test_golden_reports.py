"""Golden report bytes of the shift backend (the doubling map).

Each Monte Carlo experiment that runs on the 64-bit window backend is pinned
by the sha256 of its canonical JSON report, on three seeds, with one
irrational (``powerlog``) and one rational radius. Sample counts do not
divide the block of samples the backend works on, and ``orbit-long`` has a
horizon past the block budget, so block edges are covered. The digests were
taken from the per-sample window code that the block kernel replaced.
"""

import hashlib

import pytest

from recurlab.cli import parse_sequence, parse_system
from recurlab.experiments import (
    boshernitzan_scan,
    ear_truncated_measure,
    recurrence_measure_scan,
    rio_dichotomy,
    rio_truncated_measure,
)

DOUBLING = parse_system("doubling")
POWERLOG, RATIONAL = parse_sequence("powerlog:1,2"), parse_sequence("powerlaw:1/2,1")
EAR_RATIONAL, EAR_POWERLOG = parse_sequence("powerlaw:1,1"), parse_sequence("powerlog:1/2,-1")

CASES = {
    "rio-powerlog": lambda s: rio_truncated_measure(DOUBLING, POWERLOG, 5, 300, 250, s),
    "rio-rational": lambda s: rio_truncated_measure(DOUBLING, RATIONAL, 5, 300, 250, s),
    "rio-dichotomy": lambda s: rio_dichotomy(DOUBLING, POWERLOG, RATIONAL, 5, 300, 250, s),
    "scan-powerlog": lambda s: recurrence_measure_scan(DOUBLING, POWERLOG, 120, 300, s),
    "scan-rational": lambda s: recurrence_measure_scan(DOUBLING, RATIONAL, 120, 300, s),
    "ear-rational": lambda s: ear_truncated_measure(DOUBLING, EAR_RATIONAL, 4, 150, 400, s),
    "ear-powerlog": lambda s: ear_truncated_measure(DOUBLING, EAR_POWERLOG, 4, 150, 400, s),
    "orbit-scan": lambda s: boshernitzan_scan(DOUBLING, [1.0, 2.0], [10, 100, 200], 300, s),
    "orbit-long": lambda s: boshernitzan_scan(DOUBLING, [1.0], [100, 40000], 3, s),
}

GOLDEN = {
    ("rio-powerlog", 1): "837e1918aa459acd5050209627e10ee804e9ae3f1ec66727eedc5848dfcae2cd",
    ("rio-rational", 1): "24a244753d9efdd41440b75b26d127c55e94ccf6c77a9044c6799c18cf776bd4",
    ("rio-dichotomy", 1): "a313d136a4b3a6cebab028f6c24b0df61bc6936d8d4118ec7e8d83f2914b5b3b",
    ("scan-powerlog", 1): "90342ed6419619be9ab4668b78d9d3a5d6f5160a485e0adc0442384df4c2c5d9",
    ("scan-rational", 1): "f4565693684f3f02c162a44d8255f72152617846f64d99a182ca761e94f297c2",
    ("ear-rational", 1): "3f51afc1a3bd89bd8a94956406556e2232955210920fdd7a7e1bd41af1f95df1",
    ("ear-powerlog", 1): "0b32b62f5689e714f011f061630fc99f8ebaefe93b5944cc02917769b62e4b14",
    ("orbit-scan", 1): "671bf3ed6c5a13c440fed7504c917e2f7e197d12063f67c0d40e78981f161e9a",
    ("orbit-long", 1): "0a971a86768217f241066481064a2780e73e1e50e0fd1f93a75c89c2ae68c073",
    ("rio-powerlog", 2): "fc1156d53b72e18702c1bd64e856e19bb0fb4976fa2b8bbad3c9ed8d10995ac3",
    ("rio-rational", 2): "dc4846073b81c626130836412c22173373755d4ad9d55b0178bac02578d2558c",
    ("rio-dichotomy", 2): "6450c45b748a47810b1f1546e2f12196407f71eaea9674226abee23d868806d3",
    ("scan-powerlog", 2): "75095d16f6a2e1ff2114dbc3ba53f7537d7bafb95a506aac7a4da04a60f010be",
    ("scan-rational", 2): "b9650ebb923d5312e178c4b15331f61331b62173ef1fc39806a9f34ad47f2cec",
    ("ear-rational", 2): "c50819b14dc0cb94e673b21113156e0a15f834822d835fe04c6a6773d3997775",
    ("ear-powerlog", 2): "4d99d3f682ede1af5ab68c4718bef81114cc75295de154417e5e1253a2165a76",
    ("orbit-scan", 2): "ba19f76aa7ec1fe6267f153fec110a7b25f107b23397ef056161ab4f00f12c99",
    ("orbit-long", 2): "072c12fe2999beeca6510fdb849b95d4f4c9a43037b16910c3e284ebcbfcba38",
    ("rio-powerlog", 3): "17a8659a3f0fe67a3a2bec3f276c139085a38f5af1548f03874b11f7a78797a5",
    ("rio-rational", 3): "220ea1dbbe0875a4f37981f2785a01b6c0a0e9171b6acf3328d639b2a332958c",
    ("rio-dichotomy", 3): "d1240c9bb5f1c7a89019bd30b99c6c136cec9e88b0408d5bc0c734006ff06acd",
    ("scan-powerlog", 3): "ba1fb4fedecf85b0ab76c0022bac8ae2d7728e6bd0bfebf9e7149749f1e69fe2",
    ("scan-rational", 3): "7331faf9e160ba3f87a56b87fbc4ca8ff6c752ced782ded690131ce37221da2d",
    ("ear-rational", 3): "02abd7de787d925b01bff6702a81e06c8a3f4db460b90db530ce939aee0a7ef4",
    ("ear-powerlog", 3): "7c904c058bb9d4eb2c0ccce97b30ffd01557358bff0597840cc942d5f777e341",
    ("orbit-scan", 3): "47c7526bf9a721db3a5887f9dd7c6d967b137a35e22ea68fcecf92ab31bcca9d",
    ("orbit-long", 3): "99ca318a8beadf4a43d11cf10e35f0ccd45f57d90bfda8afd3c5a20b014e9e01",
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_shift_backend_report_bytes(name, seed):
    report = CASES[name](seed)
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == GOLDEN[(name, seed)]
