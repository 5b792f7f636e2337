"""Golden digests for the rendered report.

The CDN sections (Figs 1, 2, 13 and Table 6) are pinned per seed, and the
full ``run_experiments`` report over the shared scenario fixture is
pinned whole.
The digests were computed before the CDN vantage became columnar and
shared per process; a render must still reproduce them byte for byte.

The NT-A source sections (Figs 5, 9, 11, 14 and Tables 1, 3) are pinned
on the benchmark's ``report`` scenario config at seeds 0, 1 and 2.  Their
digests were computed while those analyses still walked the records one
row at a time.
"""

import hashlib

import pytest

from bench.workloads import REPORT
from repro.exec.pool import run_experiments
from repro.experiments import (
    fig1, fig2, fig5, fig9, fig11, fig13, fig14, table1, table3, table6,
)
from repro.sim import ScenarioConfig, run_scenario

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

SOURCE_SHA256 = {
    ("fig5", 0): "d9b0d1b1d74427f557d72d07031910720766d26a8525a42ddd10d1e2b39ee8a3",
    ("fig5", 1): "e37e37d1cc47dce7b9665b800336c55da42e10393d7eddd360f62da3b8ca2606",
    ("fig5", 2): "2fa03f6f894b79a988c6e02f27086cd5fa70c44c90a49106a0bd4e0906ba8d15",
    ("fig9", 0): "5d711cd104a20beac0f357e9d9b85351ef61273ca5e1260c8a2ea460d3d6dcbd",
    ("fig9", 1): "7a7e161e90f466f64eb90dfae91d1eaae3f2af74104ddd7c7d768a6e6b2f08bf",
    ("fig9", 2): "538b6785a67116501f92e52c3704fce59e1bd7dbf195d6cb3c602376e1a18dff",
    ("fig11", 0): "5079d6e088d7fbc3daa29998de9b177e73453625c3673a6f491cd6d50ba3079b",
    ("fig11", 1): "5171b6da84b49c918d172856319dbb662c7548ed4e8e60a5b8b8e5afd17c477a",
    ("fig11", 2): "cdd79c0c51ba0ca71cb873ba868eb5249cf4bf791ca832f9bce8f76124ae5b67",
    ("fig14", 0): "730b3577696c4bd92028a256efb77b2b389170ceb055f81424520c9969ccdd3c",
    ("fig14", 1): "ab41e32330effcf884152d7a08294ecc0b6190742ce6675af177a69786d00bed",
    ("fig14", 2): "f337088bfc329cbf6943a9652a1ce76367efa521164b4b914e2eccb2a87db0e1",
    ("table1", 0): "8107beb020b049e4f5c31ea2fb9e68fa814cf7ed4c6f8f6a12702b739990bbc9",
    ("table1", 1): "cbf1f9552a844eb2b06f36e5161528b047a4539050e3efe6be073604707070fd",
    ("table1", 2): "ad9b7b4e0e987fcd115b0ff749896e70bacc5e5165d07cb9a09786e294d50285",
    ("table3", 0): "946539802480538724733359cb9d292ea4b9c3705384ab98b294b5c386c30962",
    ("table3", 1): "452d0034f2197f17303556268fd7ba8f1c451d2d8ddce79e0925aa849715f92a",
    ("table3", 2): "9cae4ab3669f02db9c22493aed1f7887230d94918aa07b0e5f77323eb1aaf80f",
}

DRIVERS = {"fig1": fig1, "fig2": fig2, "fig13": fig13, "table6": table6}
SOURCE_DRIVERS = {"fig5": fig5, "fig9": fig9, "fig11": fig11, "fig14": fig14,
                  "table1": table1, "table3": table3}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(CDN_SHA256))
def test_cdn_section_digest(name, seed):
    assert sha256(DRIVERS[name](seed=seed).render()) == CDN_SHA256[name, seed]


@pytest.fixture(scope="module", params=(0, 1, 2))
def report_result(request):
    config = ScenarioConfig(**dict(REPORT.config, seed=request.param))
    return request.param, run_scenario(config)


@pytest.mark.parametrize("name", sorted(SOURCE_DRIVERS))
def test_source_section_digest(report_result, name):
    seed, result = report_result
    text = SOURCE_DRIVERS[name](result).render()
    assert sha256(text) == SOURCE_SHA256[name, seed]


def test_full_report_digest(small_result):
    assert sha256(run_experiments(result=small_result)) == REPORT_SHA256
