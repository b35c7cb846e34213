"""Golden report bytes of the lattice backend (integer circle maps other than
doubling, toral maps, rational rotations and piecewise-affine maps).

Each Monte Carlo experiment is pinned by the sha256 of its canonical JSON
report, with one rational and one irrational (``powerlog``) radius, on seed
1. Sample counts do not divide the block of samples the experiments work
on, and ``rio`` starts at k = 5. The digests were taken from the ``Fraction``
orbits that the integer lattice orbits replaced.
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

SYSTEMS = ("circle:3", "circle:-3", "toral:2,1;1,1", "rotation:5/17",
           "piecewise:0,1/3,3,0;1/3,1,3/2,-1/2")
POWERLOG, RATIONAL = parse_sequence("powerlog:1,2"), parse_sequence("powerlaw:1/2,1")
SQUARE = parse_sequence("powerlaw:1,2")
EAR_RATIONAL, EAR_POWERLOG = parse_sequence("powerlaw:1,1"), parse_sequence("powerlog:1/2,-1")

CASES = {
    "rio-powerlog": lambda sys: rio_truncated_measure(sys, POWERLOG, 5, 80, 250, 1),
    "rio-rational": lambda sys: rio_truncated_measure(sys, SQUARE, 5, 80, 250, 1),
    "rio-dichotomy": lambda sys: rio_dichotomy(sys, POWERLOG, RATIONAL, 5, 80, 250, 1),
    "scan-powerlog": lambda sys: recurrence_measure_scan(sys, POWERLOG, 80, 250, 1),
    "scan-rational": lambda sys: recurrence_measure_scan(sys, RATIONAL, 80, 250, 1),
    "ear-rational": lambda sys: ear_truncated_measure(sys, EAR_RATIONAL, 4, 80, 250, 1),
    "ear-powerlog": lambda sys: ear_truncated_measure(sys, EAR_POWERLOG, 4, 80, 250, 1),
    "orbit-scan": lambda sys: boshernitzan_scan(sys, [1.0, 2.0], [10, 50, 120], 200, 1),
}

GOLDEN = {
    ("circle:3", "rio-powerlog"):
        "5931ce15e336b728d455a3fb754b618a68a30581269e049f857e1e47e25c6bca",
    ("circle:3", "rio-rational"):
        "763ba8b3ef3b9dbc87502a6ce9a1538c25a93fd37711d5b6b853bddc04a5fded",
    ("circle:3", "rio-dichotomy"):
        "dfaffe204c711c0372b1a537d7331502995b6a0eba80b840f8712e25cb9eefb8",
    ("circle:3", "scan-powerlog"):
        "e060ccffdbb8866d547915ce85556e9bdb3473ee867625f816b6ccda69fc9b75",
    ("circle:3", "scan-rational"):
        "1604c9424e851241d915c0c26856a9c90259a2df4b3f66a7d9ccd4c0118528b8",
    ("circle:3", "ear-rational"):
        "8e19d0f8a53c37190c074f6b0884a870ebf8027d024431841660836169259050",
    ("circle:3", "ear-powerlog"):
        "0849ec299d008f366b5ac7571b57747a56bef747dbfa4f17b81167454edd8631",
    ("circle:3", "orbit-scan"):
        "cd11ff42c12f039791936f7c9c5ab959c7af3e61c8576fbcda6b755f9e9e2338",
    ("circle:-3", "rio-powerlog"):
        "38c8a2ec323e94ab9e2ba6cfe42b16974daa9bba8811eef814c82a43101a04ce",
    ("circle:-3", "rio-rational"):
        "172fd4962ff9d701b4668e06fb9baca0ab29d2515f936b240bcd9e9837b38b16",
    ("circle:-3", "rio-dichotomy"):
        "6914a8f3491b8567a02e70cc274bde8caab99915ebe2265c6f33edc93faa4301",
    ("circle:-3", "scan-powerlog"):
        "06131ef7230f63aa56f47661c011118d6393c51f44e57b8fa81c7bf108a70c83",
    ("circle:-3", "scan-rational"):
        "4ce06310db17ea251f214a6167b4366149b928c0a8f9467bd581ebf11a3fdb86",
    ("circle:-3", "ear-rational"):
        "4c24e5675fe26babb45443cdb6babd27d44b6522b4c9bc0fefc1a333b0f4b72c",
    ("circle:-3", "ear-powerlog"):
        "c8f4dc5fc948b0269024a3f0dc55a107ef9f9522867ba468612ffa57ab2259a2",
    ("circle:-3", "orbit-scan"):
        "76acc329d6d2b393cba1ef537a011036cd742094dd1f1668cb271f103460c44b",
    ("toral:2,1;1,1", "rio-powerlog"):
        "04c33ffebaa59beafa96c563d5e887a938dd2900fe81d49566afcbb3e5c76e40",
    ("toral:2,1;1,1", "rio-rational"):
        "64c9c1873c07d7b9fb2e0c27a4853bc5a26a7ccd6d3b9883acb1bd67ff7a5730",
    ("toral:2,1;1,1", "rio-dichotomy"):
        "40471189ddb2c19a5f9a7fd0e6398284c8e87e399f9e31bf540ae55a50531f46",
    ("toral:2,1;1,1", "scan-powerlog"):
        "589c0403d24fb7d007a6c10373086758b537de8db0d9f6fc0e75781e4a4ef50d",
    ("toral:2,1;1,1", "scan-rational"):
        "f174f06fe0c587ed1ad2f7f9d7ebca093b8516c3d66ce0b18b41173de81cef25",
    ("toral:2,1;1,1", "ear-rational"):
        "94a3e4eb71f1232dcd574bd8ac7fce613448045e13557ee7e51fd5a5c6d0f2b7",
    ("toral:2,1;1,1", "ear-powerlog"):
        "181ba9ab4cb7db00ccaeca78e6df995210ecc17aa2a010e1580ab4809dc1d929",
    ("toral:2,1;1,1", "orbit-scan"):
        "a2a3803446ee86e2466ab6cc2ecfc6797c8971c7378d756d2a8257fc60d8c025",
    ("rotation:5/17", "rio-powerlog"):
        "53f990a8656884ac29de81334a37e9a9c3d76fc9f7f2f3a2154363ef9391391e",
    ("rotation:5/17", "rio-rational"):
        "773be3149f4a3d04f42d5ac6ea08095121f5313a782ca318e9a924dd40aa7ba3",
    ("rotation:5/17", "rio-dichotomy"):
        "da4594b870bd92db274f16e32df4c821b2e87ed284609be5ca69f3a8d44dc7a5",
    ("rotation:5/17", "scan-powerlog"):
        "e2e8583406c251e84662a5ea142d1d07edc0986ffa6c5b4225fb9d2f3227253b",
    ("rotation:5/17", "scan-rational"):
        "e73ba465f64c6720826cf70af3b59c88deceacefba3fa858990753fc1954bf4e",
    ("rotation:5/17", "ear-rational"):
        "0d3134c931da030b8f86a2e3fe41310448d6e165104fd1fc95249d6b8c39f014",
    ("rotation:5/17", "ear-powerlog"):
        "3f1a22be79087e5541246c5122e68583b3345281522cade294791add192308a0",
    ("rotation:5/17", "orbit-scan"):
        "22d071a9e6313c9f13c6f65196cf979533ca6eaff932c7f7844a81a9eccc6d48",
    ("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", "rio-powerlog"):
        "bccb0bc49f5af7ab556db2b71077e4772eab879057ac7489176aaa1304b62cf3",
    ("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", "rio-rational"):
        "e0596f4ae2b477b862cf8efd33311456dd9cc782eb0c00abc83f8e4fa8e40e49",
    ("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", "rio-dichotomy"):
        "f1568ae22d4ed54002374b886d74894f75afed0bdd22d946f9fde817fae381bc",
    ("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", "scan-powerlog"):
        "76f6f64529e06b08b7880bbfe12e207fb51be854b50746f6303fc70590ad4d44",
    ("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", "scan-rational"):
        "431f1b2b430ae9600fdc68bb6c14a7fb20ccbd6f7d948356f4d6595fc80f21f9",
    ("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", "ear-rational"):
        "b4055b14f205e4a3f831900a059379b105bf9e7e06b26dbafa315552d320bb3e",
    ("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", "ear-powerlog"):
        "869b106cefe8f6afadab20b9d9d1d469e4a3cdf9e1542e47cabcb5b881cce3b9",
    ("piecewise:0,1/3,3,0;1/3,1,3/2,-1/2", "orbit-scan"):
        "61068cc92583bbde8a657f3ba0456e15f4802160ad68c96dd3e592c5a721571c",
}


@pytest.mark.parametrize("system, name", sorted(GOLDEN))
def test_lattice_backend_report_bytes(system, name):
    report = CASES[name](parse_system(system))
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == GOLDEN[(system, name)]


# Rational beta-maps run on the lattice through ``BetaMap.as_piecewise``, at
# the lattice's own sample width; pinned when they moved there from the
# fixed-point backend, whose wider samples gave other reports.
RATIONAL_BETA = {
    ("beta:5/2", "ear-powerlog"):
        "1a794719739ab3a5670eaf725121a86cfe7a0e750a76233274bcc3fa36d66c26",
    ("beta:5/2", "ear-rational"):
        "d8c82990572b659e858bc79bc2d340719deed108082230b35c919339b9236603",
    ("beta:5/2", "orbit-scan"):
        "22370029bfc1bb09d2be426cdf03c16dfcc87c6c6eaeb7fb43fa2b6caa2f20ce",
    ("beta:5/2", "rio-dichotomy"):
        "ad717f79b1dbb1d9264dbb68abc2282d830b90395a0ef8dea5c66fa355dbe248",
    ("beta:5/2", "rio-powerlog"):
        "8790c8f82352c72d6d2a39a488f077e2bdd622767743ad8625b231858e4d1140",
    ("beta:5/2", "rio-rational"):
        "4bc4f289a0943d3c362a1410d4ed08bb4fc2194f2cfc7afed1686295788d6a04",
    ("beta:5/2", "scan-powerlog"):
        "8f9a830293e03f5f5338eb5eb9f45f18fadd03568f18f7a6db6913ec086d75c9",
    ("beta:5/2", "scan-rational"):
        "a1cd4ce0fbb20b1084bd7867b7adc89d6bf69585905308028ebe05a811ad7c34",
    ("beta:4/3", "ear-powerlog"):
        "9cb30925b002bfeb352ec7f978dea7350aaa954f0c2adba6c10aeaeb061cc045",
    ("beta:4/3", "ear-rational"):
        "75c23c2327c51f53a05ee05a6721e7ef158f898aa1ec00db6844e5b08bff4943",
    ("beta:4/3", "orbit-scan"):
        "503005b8daa8f8de6a05b1e6c019c445def0661c51a1917b1246a4e50be90408",
    ("beta:4/3", "rio-dichotomy"):
        "2b0c6dc05bc21ee9a5eb5292d91f8d6c1c7b16cfd864241fbd09b0496e1eb433",
    ("beta:4/3", "rio-powerlog"):
        "d6822621c07a4f68217ff646caacffdfd0cbf73c5cc73442df0b502a69e9be20",
    ("beta:4/3", "rio-rational"):
        "57857b99aeea6fad7a481bef6d2b565e27d3925eecb80c8d09bd1951c0220452",
    ("beta:4/3", "scan-powerlog"):
        "00e15a1a029c817d5e56921d20c904b12196000cf52fa1a97882571e17f17e34",
    ("beta:4/3", "scan-rational"):
        "b82c47444b1f24f18a9373f739778e832f8801929df614c515bd2554b832821a",
}


@pytest.mark.parametrize("system, name", sorted(RATIONAL_BETA))
def test_rational_beta_report_bytes(system, name):
    report = CASES[name](parse_system(system))
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == RATIONAL_BETA[(system, name)]
