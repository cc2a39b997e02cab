"""Pinned `color` outputs: a change meant to be output-neutral keeps these.

Each case colors one small planted instance in-process through
``cli.main`` and compares sha256 digests of the ``.sol`` file, the JSONL
trace and the report without ``runtime_s`` with digests recorded before
the change.  A change that alters outputs on purpose updates the digests
and says why in CHANGES.md.
"""
import hashlib
import json

import pytest

from threecolor.cli import main
from threecolor.dimacs import emit_dimacs
from threecolor.generate import GenParams, generate_planted

# the cut params of the pipeline-cuts workload: the large-set exit is
# blocked, so the nested sparse cuts, side cuts and round audits run
CUT_PARAMS = {"k": 2.6, "c1": 2.0, "c2": 2.0}
MODES = {
    "pipeline": ["--method", "pipeline"],
    "seek": ["--method", "seek"],
    "cuts": ["--method", "pipeline", "--params", "{params}"],
    "seek-cuts": ["--method", "seek", "--params", "{params}"],
    "greedy": ["--method", "greedy"],
    "extract": ["--method", "extract"],
}

# (n, p, seed) -> mode -> (sol, trace, report) sha256 digests; the sparse
# instance is deferral-heavy: 1,891 deferrals and 4 Type 1 phases under the
# pipeline, so it pins the driver's degree keys and the first-fit unwind.
# The dense one is the pipeline-dense workload's size class: its 21 seek
# calls all fail with ErrorB, so it pins the failing search's path
# (round 1 on the driver's base under the alive set: build_two_level,
# regularize; no working graph is rebuilt) under 537 deferrals.
# Seek-cuts is the search-only colorer under the cut params: its second
# seek call rebuilds the working graph and runs 9 roots' round 1 on it,
# so it pins the search's outcome assembly after a rebuild.
# Greedy and extract pin the first-fit of the input and of the extraction
# remainder; they write no trace entries, so their trace digest is that of
# the empty file
PINNED = {
    (200, 0.3, 1): {
        "cuts": (
            "acde7253e724717ec1653ba8bd9159bff82d1a4658ece1723d2144100a285f23",
            "0ecc6816389f65e90c8fed1e45b1e2e9d39e3bb9a3e5ce290aaa867c6132eda1",
            "94ea48744c96f6f93419d7387a91b7f39ce5659fe24af0739eb1c96bb5b11fd6",
        ),
        "extract": (
            "8b836466f638e269d924bf8af42f5ec242cc33c76048377fc59261d4e6969a9f",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "534618ebc9b106cbbf46b18029d903a2d30377d1d283b7d0750f76003ae937fd",
        ),
        "greedy": (
            "41ba4728a6d06d7eb56230411dbe2fd09ed55ee19f2c39b4b228ffc18b75f353",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "ee63bc7677c530412a232fa13e86d332becb565ac47198a7605077b7b857635e",
        ),
        "pipeline": (
            "ce570ccb43a952a772dffe459ea09b9b15753652be9fc5da5ef51a3aba364cb0",
            "b65de768d787e130bd6017891bf03256724848b7a7934f2f63563f37f343ec65",
            "13316f184dac6265cbc1310222a579adad9ab017bfa6ca93e8e0c5808216b08c",
        ),
        "seek": (
            "ce570ccb43a952a772dffe459ea09b9b15753652be9fc5da5ef51a3aba364cb0",
            "c3ca73f2a19c6c354d8f0bb50a358541e436049bd9772b71882f2ef36fbe491b",
            "794c3b0d452b1e4ed689de1404a6c0b52c84992c353f07923de50d227896b8da",
        ),
        "seek-cuts": (
            "6caaf20b80d016bb4498b1f3908f2b59d95f603609983d936c1b92d954bf08ff",
            "3920a6ca038ab1b740b3563a519777a86ff9348a07d5c7ac53e24c05a46f9dc1",
            "897efa6a903afc280115006142137d44eea06a7b1b0dfcf0c83c62ff898a2779",
        ),
    },
    (300, 0.7, 0): {
        "cuts": (
            "c18e0cff70a459e86afbf01ab8ae6201f4f911f51f6a9e8f69e45100dad00f3d",
            "b7c5f28b64f16d3372a4b0dda5638ce357c04eddfd0bd99afc2ceea50633f65b",
            "9da4fed5737264d66b6bee9976cfb7700cd5c9d8822e0f939a76ae0241c7662f",
        ),
        "extract": (
            "a9955c5d2093dcf6dd9d9052d3be7c70b7b5af0abd62d4e717b3253750afee7f",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "367fa57b25ed2e9a5ec87c99ab45bc2356f3b73e136c14a0d4d9e36a45e094db",
        ),
        "greedy": (
            "a478bd5a241259a9304f990510c888f6e9e5c1ddc78b411c5118efbd58c49425",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "83118fc56aa8d4ebd02333cb3989cef3ddac0c485a2bd14e5b39551814642222",
        ),
        "pipeline": (
            "863e6126cd272ed3abb95d6e91fce7daef478c19085a003d8d8f855a5c73c995",
            "b94090bfaa194fd7d1f1b32fdcb008125844c59497b66dedb475b7c233dcacb1",
            "3612f3e935e759491d3a83bcc9df079b5327c2f437ed4ade42c203cbdba507bc",
        ),
        "seek": (
            "a478bd5a241259a9304f990510c888f6e9e5c1ddc78b411c5118efbd58c49425",
            "cfafc7eebbfd4592436025b03ad93f6f5646ce3d1363e184e220c17f39c77dda",
            "40623b90e8d2cdcfceae98bb4644afbf56fd613cc53344527d2acf1bb0874b4e",
        ),
    },
    (600, 0.7, 0): {
        "extract": (
            "279bfda5317e223cafc8c712e656c62659b17e9b4a6324e0824352c57dad8906",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "83736f3177dc0bafcc823ab58ac622fa32ddc74a469044f6a265f995217931a4",
        ),
        "greedy": (
            "1909b4b12d1ca46121240f3c4dfe0c1ec45b7a5024ca543662da5e49b2f01b3f",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "a0d361df8895e788f143bd1c782f78e99c2164a598bc480b5970a660338eb39b",
        ),
        "pipeline": (
            "f9e8ffa947a10af9619aaa8080a73db10cf5b469395f0063ada5861e48e845ee",
            "3247875c205bda287bc747456c8a495bfb4c02792d8296224419a838d8654194",
            "42d68a1570f75b1d7417210ed0419d47e87c4a33b147e7bd4e046d77df511c27",
        ),
    },
    (2000, 0.05, 0): {
        "cuts": (
            "2bdd571ad78015eaf3423b76c4c3d2024d22be3b1bb7b073da465de4e518ed7a",
            "79e6ce6865009665b016a8d665bd59d8fe7da21f692ccc8dd34e084e398d7831",
            "e620ba947872f3672a022929d40b7c3e0dc427cc528f0c9e7a36085b69a0f826",
        ),
        "extract": (
            "28d2e521aff7b0351bf0ae596e6877611cb5c972aae1e9a3dd11afe584ac61fb",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "f64ba5d48e88ef9d61a02ca4f1c628654f2cb2cf200d3e2155620781fc292f25",
        ),
        "greedy": (
            "17e068e5f101f84cdf3959fdc79a17d8f72e13fa338251c00d35344d7f170582",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "20eba0090c4b3a4ab187183f11df114af091d4ec1ca9c2493fd2b5704f75db48",
        ),
        "pipeline": (
            "f28005742e28d405c37458894e3ceaa84b78053f0ca6fe785d681864d6007d41",
            "2f107e8791dc6babedb97e1bab675bff982b3313d00400fcad82d2bbb302dad2",
            "7c32525f97235d334ed96c89070e1afaace275a3b3cb9652fab9a8d6b6935166",
        ),
        "seek": (
            "17e068e5f101f84cdf3959fdc79a17d8f72e13fa338251c00d35344d7f170582",
            "f4cc29e80fc4dadecc0c20796f5ddf8ee046600aec67ee0b772b7350f951347a",
            "ee8cf5d7d9b073ab4a1a699b0f4168e982c23ed7fa2671290787f603d925fee1",
        ),
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CASES = [pytest.param(instance, mode, id="n{}-p{}-s{}-{}".format(*instance, mode))
         for instance in sorted(PINNED) for mode in sorted(PINNED[instance])]


@pytest.mark.parametrize("instance, mode", CASES)
def test_color_outputs_match_pinned_digests(tmp_path, capsys, instance, mode):
    n, p, seed = instance
    graph, _ = generate_planted(GenParams(n=n, edge_prob=p, seed=seed))
    col = tmp_path / "g.col"
    col.write_text(emit_dimacs(graph))
    params = tmp_path / "params.json"
    params.write_text(json.dumps(CUT_PARAMS))
    sol, trace, report = (tmp_path / name for name in ("g.sol", "trace.jsonl", "report.json"))
    flags = [flag.format(params=params) for flag in MODES[mode]]
    code = main(["color", "--in", str(col), "--out", str(sol), "--trace", str(trace),
                 "--report", str(report), *flags])
    assert code == 0
    assert capsys.readouterr().out.startswith("colored with")
    fields = json.loads(report.read_text())
    del fields["runtime_s"]
    got = (_digest(sol.read_text()), _digest(trace.read_text()),
           _digest(json.dumps(fields, indent=2, sort_keys=True)))
    assert got == PINNED[instance][mode]
