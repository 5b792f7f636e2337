"""Golden digests for the rendered report.

The CDN sections (Figs 1, 2, 13 and Table 6) are pinned per seed, and the
full ``run_all`` report over the shared scenario fixture is pinned whole.
The digests were computed before the CDN vantage became columnar and
shared per process; a render must still reproduce them byte for byte.
"""

import hashlib

import pytest

from repro.experiments import fig1, fig2, fig13, table6
from repro.experiments.report import run_all

CDN_SHA256 = {
    ("fig1", 0): "178c13b0ac12dad5b0ce63b3e458db99a33e62d3167a20ed77733735e9ff0135",
    ("fig1", 1): "be332855e8ec5c4e6ed8af6145f2068688859ef933e8ee8d1cbd3333ed98e272",
    ("fig1", 2): "c71a7f8c63cd35efbcaeadf096187718404bbec712e6904a194e0925f19ab6b1",
    ("fig2", 0): "68ff59a63c4cac6cf28761f8409bd8cdb96e53b9c54d2940c57f93589f7906dc",
    ("fig2", 1): "e578a556cb0f635994359f31ce26c8b70c42fee62f15a6752821203beba03e0d",
    ("fig2", 2): "78432de502a943d75c455256b14df50444729985a498728e26521b6fcec323a7",
    ("fig13", 0): "4e4c5a2f706eb86f00b1e1e1ef0f6f7419f52337bc8ded7c9e801c766fb0ef1f",
    ("fig13", 1): "fee89047bfeea5569eee42307ba07ecb8addd034c087264e197ce12d326c44b1",
    ("fig13", 2): "77e5ea77e841ec069c65966c76725ab7e80f02ed7c9ee868729c4622ba28e146",
    ("table6", 0): "722cea36b8a365ee9f8a7164e959219642e3fd454d0845af52acad3886a9805b",
    ("table6", 1): "85660e4e7f5e857992d7b7fbe5acdf02a995897ebc2374f9cca5ec5b00975f21",
    ("table6", 2): "e92836e88638b69fff1bfe864f87eaabbd63826eef7faa42d962d527b937bcb5",
}
REPORT_SHA256 = ("cd2e9246984d6c993134f1aa4342b82f"
                 "7adf33d9780ab130b787023a97b82b7e")

DRIVERS = {"fig1": fig1, "fig2": fig2, "fig13": fig13, "table6": table6}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(CDN_SHA256))
def test_cdn_section_digest(name, seed):
    assert sha256(DRIVERS[name](seed=seed).render()) == CDN_SHA256[name, seed]


def test_full_report_digest(small_result):
    assert sha256(run_all(small_result)) == REPORT_SHA256
