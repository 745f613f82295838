"""Byte-for-byte pins on CLI stdout.

Each case runs one fast `idealhash` call in-process and compares the sha256
of its stdout with a recorded digest.  A change that alters any printed byte
of these calls fails here; a deliberate output change records new digests.
"""

import hashlib

import pytest

from idealhash.cli import run

GREEDY = ["construct", "--method", "greedy", "--u", "8", "--m", "2", "--n", "4"]
REPORT = ["report", "--u", "8,16,256", "--m", "2,4", "--n", "4,8", "--c", "1,3/2"]

CASES = {
    "exact": (
        ["exact", "--u", "8", "--m", "2", "--n", "4"],
        "3d90affd3d5b48c9adb17507dff5bd4954a2d61917252956bc6fee18f49e04cb",
    ),
    "exact-two-sizes": (  # fibers 62501 x5 and 62500 x11: two groups meet in the last product
        ["exact", "--u", "1000005", "--m", "16", "--n", "300", "--c", "3/2"],
        "795b84757bfeed42fbdab070694213444257f7507051e30ffa639e0efadcefd2",
    ),
    "exact-with-hc": (
        ["exact", "--u", "8", "--m", "2", "--n", "4", "--c", "3/2", "--with-hc"],
        "3c2a064913092ecbd40f717592930085e2b72fa2bab771e9eba1fb95250d31e9",
    ),
    "bounds-json": (
        ["bounds", "--u", "64", "--m", "4", "--n", "8", "--c", "3/2"],
        "63e7337d44818be5995a13705bf8da49364e98a04affc75fa74a68decbd5669c",
    ),
    "bounds-table": (
        ["bounds", "--u", "16", "--m", "4", "--n", "4", "--format", "table"],
        "daf678c5a37796ecc1120933178b1455bb994433c4ec18720cea22234a65359b",
    ),
    "bounds-ceilings-past-float-range": (  # upper.main and upper.prob.* ceilings are null
        ["bounds", "--u", "2400", "--m", "1200", "--n", "1200"],
        "bb0862d5825722d0af31f71d0f92585e3fc95321a3ea54c22c98117e96cfd6a5",
    ),
    "bounds-fk-table": (  # lower.fk and upper.fk valid, log2 column printed
        ["bounds", "--u", "1000000", "--m", "30", "--n", "30", "--format", "table"],
        "eb379ca6a72546475eb64e58b96fb0597c9d0278f325b33def9f792408aa02b0",
    ),
    "bounds-eps-t": (  # nonzero epsilon and the t note
        ["bounds", "--u", "10", "--m", "2", "--n", "4", "--eps", "1/3", "--t", "3.5"],
        "319232e40e2c6b0e34fd6ce81619c71d3e710dcbb1968b9a1526b586770350fb",
    ),
    "bounds-zero-advice": (  # c >= m: every advice field is 0 with the one note, lower.main null
        ["bounds", "--u", "16", "--m", "2", "--n", "4", "--c", "2"],
        "49b589ee3582250cce91ea0faa04e1a344b5241b94a9169f43d9430eeab7db34",
    ),
    "bounds-large-count": (  # a 6,264-digit M_c, past the exact command's int->str limit
        ["bounds", "--u", "1000000", "--m", "16", "--n", "2000", "--c", "3/2"],
        "ab46ca15d6f4eccb2778e5fa0d74c53637018276676b634585617037e9b130cb",
    ),
    "bounds-counting-skipped": (  # n * log2(u) beyond desk scale
        ["bounds", "--u", "1000000000", "--m", "16", "--n", "20000"],
        "14dccc8b59edcd7503b90f0754f95ba6a06769cff9a84f4be1b14e7d0c7b7866",
    ),
    "bounds-u-one": (  # m < 2 universe note; the u >= 2 notes of upper.main, upper.naor and upper.prob.loose
        ["bounds", "--u", "1", "--m", "1", "--n", "1"],
        "ae21c10be72d60b8bc21b82e871d4692e8bd9c1e340e351f0240f79346ca7de0",
    ),
    "bounds-c-covers-universe": (  # u <= c*alpha universe note; mehlhorn needs c = 1
        ["bounds", "--u", "4", "--m", "2", "--n", "4", "--c", "2"],
        "542ebe68c0fca39cba8676ace4c3e2876d48fc1f0abccebd27358da68ec1d586",
    ),
    "bounds-infeasible-cap": (  # both cap-below-ceil(alpha) notes; non-integral upper.main note
        ["bounds", "--u", "6", "--m", "2", "--n", "3"],
        "f3fdd6d170bfc8c66363cea7f5ece694f1b2a1958569d4d4cf2a213b884f5a0b",
    ),
    "construct-greedy": (
        GREEDY,
        "63dd0aa046c38e6e149586aaddbef96770c78c0262f653568a3ed7a41ef89ded",
    ),
    "construct-yao": (
        ["construct", "--method", "yao", "--u", "8", "--m", "2", "--n", "4", "--t", "2.0"],
        "3d56140c602055b901cac56bcc01f8436d69359ab7f44de7584d1aedef1bf08c",
    ),
    "construct-random": (
        ["construct", "--method", "random", "--u", "10", "--m", "2", "--n", "4", "--c", "3/2", "--seed", "3"],
        "2bdbf02549913813492972e106f0be5b251f52509b5694204ff2bbe8d852589b",
    ),
    "construct-yao-fallback": (  # fallback rounds [1, 2, 3]
        ["construct", "--method", "yao", "--u", "9", "--m", "3", "--n", "3", "--t", "8"],
        "82b914fa9cf606585f3722cdbba906c876a2060cfd6e11fcf539b0027f850635",
    ),
    "construct-greedy-pool-all": (
        ["construct", "--method", "greedy", "--u", "6", "--m", "2", "--n", "2", "--pool", "all"],
        "2878848547d5c0a1e7394b0f3f58e1be5ec56bdd8ef8702b7a78854a3732ffb4",
    ),
    "construct-greedy-unverified": (  # cap 1 < ceil(4/3): all 35 sets stay uncovered
        ["construct", "--method", "greedy", "--u", "7", "--m", "3", "--n", "4"],
        "9dedaa19ed813425017cb7350e8ac976104cf45dd831c77e86fe3283a422b8f6",
    ),
    "construct-greedy-pigeonhole": (  # m*cap = 3 < n: every set exceeds, no key table; pool_size 11550
        ["construct", "--method", "greedy", "--u", "11", "--m", "3", "--n", "5"],
        "63c01883676ef3cf155320540358e9df1c313025a5bb2f0a03a6811046fb7312",
    ),
    "construct-yao-five-equal-cells": (  # kernel path over 945 partitions; pool_size 113400
        ["construct", "--method", "yao", "--u", "10", "--m", "5", "--n", "5", "--t", "2.0"],
        "db9d843fbcd6363bfe8f6eddb9ad10dfd22455e17eb7bbc1e2cd179973517e1d",
    ),
    "verify-greedy": (
        ["verify", "--u", "8", "--m", "2", "--n", "4", "--family", "{family}"],
        "ce2e5923376efa2debf6fba7dbff1bb5df2674b0766052d23cb390fba9495f94",
    ),
    "simulate-max-load": (
        ["simulate", "--kind", "max-load", "--m", "64", "--n", "64", "--trials", "500", "--seed", "7"],
        "1354a4755b57fbe90ace28bd3f0328303f8ec3e1a4dec46351b40b6d2b90c11b",
    ),
    "simulate-ideal-prob": (
        ["simulate", "--kind", "ideal-prob", "--u", "16", "--m", "4", "--n", "8", "--c", "3/2", "--trials", "2000", "--seed", "5"],
        "f44b940d215525994c8bcb640fa1aba8d7b31d528f75cb1899dcd90afbe06c4c",
    ),
    "check-lemmas": (
        ["check-lemmas"],
        "2fed0f76f14fd2994c0b0ad441655128fc655b769ab21b8c1a2e3e59be35af83",
    ),
    "check-lemmas-table": (
        ["check-lemmas", "--format", "table"],
        "9aa4d4636b5ecd9405354e8ea474a372e69322056d12abc3e87548b9dfa35c0d",
    ),
    "report-csv": (
        REPORT + ["--format", "csv"],
        "a435fb8295ec14c683eed4941499f50b3f7a1e0e8297f5fb83ad02a50ef337b0",
    ),
    "report-default": (  # no --format: the same bytes as report-csv
        REPORT,
        "a435fb8295ec14c683eed4941499f50b3f7a1e0e8297f5fb83ad02a50ef337b0",
    ),
    "report-table": (
        REPORT + ["--format", "table"],
        "1a732b3c02d399a43d75939e6f170b4d49d78e91213052b10ee91e50f0a5bc07",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest(name, capsys, tmp_path):
    argv, digest = CASES[name]
    family = tmp_path / "greedy.txt"
    if "{family}" in argv:
        assert run(GREEDY + ["--family-out", str(family)]) == 0
        capsys.readouterr()
    rc = run([str(family) if a == "{family}" else a for a in argv])
    out = capsys.readouterr().out
    assert rc == 0
    got = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert got == digest, f"{name}: stdout sha256 is {got}"
