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
# Greedy and extract pin the first-fit of the input and of the extraction
# remainder; they write no trace entries, so their trace digest is that of
# the empty file
PINNED = {
    (200, 0.3, 1): {
        "cuts": (
            "acde7253e724717ec1653ba8bd9159bff82d1a4658ece1723d2144100a285f23",
            "0ecc6816389f65e90c8fed1e45b1e2e9d39e3bb9a3e5ce290aaa867c6132eda1",
            "91f2529c771c56c1f478e923ad82268930fae02ade0e344b18221352f5413882",
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
            "a7d37a67bcf307b44b1a614a427b3519a2a17559e28dea479b14280df05e396a",
        ),
        "seek": (
            "ce570ccb43a952a772dffe459ea09b9b15753652be9fc5da5ef51a3aba364cb0",
            "c3ca73f2a19c6c354d8f0bb50a358541e436049bd9772b71882f2ef36fbe491b",
            "7162526bfde221043d26daf39de2ba36fa3c2267337b870ef179f3bc6e3a5dfe",
        ),
    },
    (300, 0.7, 0): {
        "cuts": (
            "c18e0cff70a459e86afbf01ab8ae6201f4f911f51f6a9e8f69e45100dad00f3d",
            "b7c5f28b64f16d3372a4b0dda5638ce357c04eddfd0bd99afc2ceea50633f65b",
            "0e13a426180c0c21ce5cfdc669f7c175fc8914b125c5ebb158a17032783a9b78",
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
            "8b759ef18aaba5e2cc5fe902a1138cca958eb0470c43188c62559c5a520146b3",
        ),
        "seek": (
            "a478bd5a241259a9304f990510c888f6e9e5c1ddc78b411c5118efbd58c49425",
            "cfafc7eebbfd4592436025b03ad93f6f5646ce3d1363e184e220c17f39c77dda",
            "1d43d5f2d87f72fe47f079b742ee71860a5bc84cb7387af5145c533f360f7be0",
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
            "35efe9059ca79c86bcf2393e5406f890ba5d9bc4361499bcfe7704ef7d194a1b",
        ),
    },
    (2000, 0.05, 0): {
        "cuts": (
            "2bdd571ad78015eaf3423b76c4c3d2024d22be3b1bb7b073da465de4e518ed7a",
            "79e6ce6865009665b016a8d665bd59d8fe7da21f692ccc8dd34e084e398d7831",
            "f72f7168c16a44ded30016611c25c08f31a4466274f8826fad68786287e1e6af",
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
            "1ee8acb5408ad76373e386830cf31b638d10f93a27ea8413ce1ff384b9b0e961",
        ),
        "seek": (
            "17e068e5f101f84cdf3959fdc79a17d8f72e13fa338251c00d35344d7f170582",
            "f4cc29e80fc4dadecc0c20796f5ddf8ee046600aec67ee0b772b7350f951347a",
            "bee0b654043ac2897decaf603be1419292eecad44d97e7b288f17a8046e8a493",
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
