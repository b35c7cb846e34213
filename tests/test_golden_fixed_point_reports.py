"""Golden report bytes of the fixed-point backend (beta-maps and irrational
rotations).

Each Monte Carlo experiment is pinned by the sha256 of its canonical JSON
report, with one rational and one irrational (``powerlog``) radius, on seeds
1 and 2. Sample counts do not divide the block of samples the experiments
work on, and ``rio`` starts at k = 5. The digests were taken from the
per-step generator pipeline that the one decision loop of
``FixedPointOrbit`` replaced.
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

SYSTEMS = ("beta:golden", "beta:sqrt2", "rotation:golden")
SEEDS = (1, 2)
POWERLOG, RATIONAL = parse_sequence("powerlog:1,2"), parse_sequence("powerlaw:1/2,1")
SQUARE = parse_sequence("powerlaw:1,2")
EAR_RATIONAL, EAR_POWERLOG = parse_sequence("powerlaw:1,1"), parse_sequence("powerlog:1/2,-1")

CASES = {
    "rio-powerlog": lambda sys, s: rio_truncated_measure(sys, POWERLOG, 5, 80, 250, s),
    "rio-rational": lambda sys, s: rio_truncated_measure(sys, SQUARE, 5, 80, 250, s),
    "rio-dichotomy": lambda sys, s: rio_dichotomy(sys, POWERLOG, RATIONAL, 5, 80, 250, s),
    "scan-powerlog": lambda sys, s: recurrence_measure_scan(sys, POWERLOG, 80, 250, s),
    "ear-rational": lambda sys, s: ear_truncated_measure(sys, EAR_RATIONAL, 4, 80, 250, s),
    "ear-powerlog": lambda sys, s: ear_truncated_measure(sys, EAR_POWERLOG, 4, 80, 250, s),
    "orbit-scan": lambda sys, s: boshernitzan_scan(sys, [1.0, 2.0], [10, 50, 120], 200, s),
}

GOLDEN = {
    ("beta:golden", "rio-powerlog", 1):
        "f3cb6036b54439d054df28f4b3046adc5518dc1ca734e0e86517754ef2267999",
    ("beta:golden", "rio-powerlog", 2):
        "025b3a5fbb65255b254b3f929a5bb198281ce4ef8936a1b9dfdf42753045311a",
    ("beta:golden", "rio-rational", 1):
        "1a07f155ad7af300ebf30d7a4f891b519f7af720766c9c3895a1aa87a8d34d1e",
    ("beta:golden", "rio-rational", 2):
        "34a1df417aa35a1b393245826850bba01fb3033e7f9b1d45a5c8e00fd2996466",
    ("beta:golden", "rio-dichotomy", 1):
        "bc0d98dc054e8aaaad70b9359b39753ef9e419f15df5d4922db78bccbd8d1bea",
    ("beta:golden", "rio-dichotomy", 2):
        "9a469a4962ce889a0079f16614ca87e82e2635997bfbc23b5232946b98f09c59",
    ("beta:golden", "scan-powerlog", 1):
        "d47172f6830947bf1797e8d67231ab10be5d152cc12688c57d4b83817808f1ca",
    ("beta:golden", "scan-powerlog", 2):
        "4d92257e2fe9d076934eca799678314f839e8c1f1b9a88c2917138380c4ec7c5",
    ("beta:golden", "ear-rational", 1):
        "ec6bdbac0716d7d0610cca12971e9fcf11a7dea38c441194c055e515f6370acd",
    ("beta:golden", "ear-rational", 2):
        "5f72d088ee5feae831b3f172d26bc735dfef9773b22e471992069fb5352e5f32",
    ("beta:golden", "ear-powerlog", 1):
        "894a0a69c53c7ccab560b96029a6ba709e407d0be7f255b45a348930c03f2950",
    ("beta:golden", "ear-powerlog", 2):
        "02a2708a20567145d6f7f0adb14c901fb7dbe66931ab465e8aea09193db0738a",
    ("beta:golden", "orbit-scan", 1):
        "7926b528d8c17ec0121da29bf891fb23be5404d788a7873ff180f8ef373205c1",
    ("beta:golden", "orbit-scan", 2):
        "149347b5bb91b6e8ee9163bb279b912924300f4b05e33a476ae05fafa848e89b",
    ("beta:sqrt2", "rio-powerlog", 1):
        "50dfad04f79fc1db001a7e159e3f6b91a1c3906e5f6633d83128c7db27577e56",
    ("beta:sqrt2", "rio-powerlog", 2):
        "6ad768a38d1722e01306238b4cae5af1ebc3302a486f13bba3bea714d9861d73",
    ("beta:sqrt2", "rio-rational", 1):
        "19fc6e2135781aae934f322d00e41eb90cecb761e9a3b814a2d4b8b60d8a93c2",
    ("beta:sqrt2", "rio-rational", 2):
        "4a4f47b15c6b9cceb89ea7ea12f0a011e229f4c49b62860ad6b3f557796c2f3e",
    ("beta:sqrt2", "rio-dichotomy", 1):
        "68f29827801f59b3ac66207a12170d62b950432c8887d0f489129920186a1217",
    ("beta:sqrt2", "rio-dichotomy", 2):
        "2fc2060a90b81caef0ab02f9b1ecc0d656b32764b43a671633db51ed264f39b9",
    ("beta:sqrt2", "scan-powerlog", 1):
        "0217a77ea3e4f7a63982f93396d4644705766ca1abf0665110856613318d82a7",
    ("beta:sqrt2", "scan-powerlog", 2):
        "c8658d080c25dbf600b4931b9bf60b5ffef95bf4478d2f420edfd15bbf5c883d",
    ("beta:sqrt2", "ear-rational", 1):
        "33b582804e0bcc41fa7ed2621994f48d9e9fca23b21a035e3ded961f6573d18d",
    ("beta:sqrt2", "ear-rational", 2):
        "59589d9f9d00c6d1f1fb2c07155f0a957f43e34b672771c9152ee72bd276dcfe",
    ("beta:sqrt2", "ear-powerlog", 1):
        "d296ecdced295e4d121dc0d7a9c2a4beebf6733aeedd9da68c6fe888678c9177",
    ("beta:sqrt2", "ear-powerlog", 2):
        "783983abf26c3c3f19819d0b3bcd9f44d5d119b0bce4ff0c0d6aede251392fc3",
    ("beta:sqrt2", "orbit-scan", 1):
        "d29ddf99e3b62ba02d4f28456b6a33000c06582658b133ff424a9bf1fa573055",
    ("beta:sqrt2", "orbit-scan", 2):
        "fd8b1a50a331a74e0b6390721ece24dd7ff06da41cbf439fbb828cb6865dccff",
    ("rotation:golden", "rio-powerlog", 1):
        "8dc420207b484ca8ea61cd03ce53d20f93c49fd0c98659ef780f78b92363f118",
    ("rotation:golden", "rio-powerlog", 2):
        "801df24025eb55f9a0d1e10eca7df40e4fd1a548569356d056c4fa90f87ef77f",
    ("rotation:golden", "rio-rational", 1):
        "25b39fd8b88b8579530595e44e316e1508a60f6182de8f9785eacb68c32a8eb0",
    ("rotation:golden", "rio-rational", 2):
        "8dbace19cafa59a9f9437e81dbc6a787bbac6ad28fedfef330acc6dd8464c714",
    ("rotation:golden", "rio-dichotomy", 1):
        "538ca4928d69e77d083fbd19500bbc167e222c6c15ddfa7375ed6f5ddcd7beda",
    ("rotation:golden", "rio-dichotomy", 2):
        "79a298bf15065af143a8e8b3b012808e177abc52078814cf6b94f716846e9da6",
    ("rotation:golden", "scan-powerlog", 1):
        "e248d7b6e275939fc5dc19bb749e42b10936e9a8b9bd8946dcf268b5b07dcedb",
    ("rotation:golden", "scan-powerlog", 2):
        "7fc860355f648f62e5b8d5a70195de600323c5969f412575746dda26a82d86fa",
    ("rotation:golden", "ear-rational", 1):
        "e6edc44bdfedb3085647eda6e41fd4c616e9a7d293c9331bc8babae1be9b812e",
    ("rotation:golden", "ear-rational", 2):
        "ade930a70e213de42e3a0b229b99cb6d91202b634ef193de54c15b7324356bbf",
    ("rotation:golden", "ear-powerlog", 1):
        "d3eb1f3234b1e7df523359c34f00987189aa83aaea61f5d30ccceb04a3d83c5b",
    ("rotation:golden", "ear-powerlog", 2):
        "2883ed96af301fbb6d8aaef98200b99a32a0b5c49e0965ce5ea31c388b881731",
    ("rotation:golden", "orbit-scan", 1):
        "21a1fb0b39ae7566dc33a329fa193171e2933e0267489f6c150afa94287797ae",
    ("rotation:golden", "orbit-scan", 2):
        "8a977b8af9764aeb7630a376ca6f376cfe372bcc87eb707ff87fce9e5395269a",
}


@pytest.mark.parametrize("system, name, seed", sorted(GOLDEN))
def test_fixed_point_backend_report_bytes(system, name, seed):
    report = CASES[name](parse_system(system), seed)
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == GOLDEN[(system, name, seed)]
