"""Byte-for-byte pins on CLI stdout.

Each case runs one fast `idealhash` call in-process and compares the sha256
of its stdout with a recorded digest.  A change that alters any printed byte
of these calls fails here; a deliberate output change records new digests.
Every argv here is also a call of `tools/sweep.py`, whose committed digests
pin it with its stderr and exit code; these cases name the call that moved.
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
        "cdae0db64277eba788b105d18135467cda78a3891e1956ef09a50ef61f2db983",
    ),
    "bounds-table": (
        ["bounds", "--u", "16", "--m", "4", "--n", "4", "--format", "table"],
        "c5d1cadc9aacae899c4a53501e4fef9ba29f51015d53d0076bf5b567c960923b",
    ),
    "bounds-ceilings-past-float-range": (  # upper.main and upper.prob.* ceilings are null
        ["bounds", "--u", "2400", "--m", "1200", "--n", "1200"],
        "1bdc628818ffb430a3c027aa37cf7b46ce150788a0c0743bed843108f49108fe",
    ),
    "bounds-fk-table": (  # lower.fk and upper.fk valid, log2 column printed
        ["bounds", "--u", "1000000", "--m", "30", "--n", "30", "--format", "table"],
        "012b1a7743d7fe86ebda0438625a28ae21bdc014d4694e8fdf558f09f526383a",
    ),
    "bounds-eps": (  # nonzero epsilon
        ["bounds", "--u", "10", "--m", "2", "--n", "4", "--eps", "1/3"],
        "61e1b9aac39eabb0697ed5e7afc5513bf4c8142f1d21e5ce21b266233544f3f7",
    ),
    "bounds-zero-advice": (  # c >= m: every advice field is 0 with the one note, lower.main null
        ["bounds", "--u", "16", "--m", "2", "--n", "4", "--c", "2"],
        "53ec183b324093bf0623b3365218aeb74abfcfd1eef7dba3231e3626115b048e",
    ),
    "bounds-large-count": (  # a 6,264-digit M_c, past the exact command's int->str limit
        ["bounds", "--u", "1000000", "--m", "16", "--n", "2000", "--c", "3/2"],
        "b107857b1b0e93da5f89e3a08012bccda9ea77e523be279d036c943552908245",
    ),
    "bounds-counting-skipped": (  # n * log2(u) beyond desk scale
        ["bounds", "--u", "1000000000", "--m", "16", "--n", "20000"],
        "261bb63e3b1984ab3a2350faa17507df87e1de799ceba46c6e42a248f8c6e663",
    ),
    "bounds-u-one": (  # m < 2 universe note; the u >= 2 notes of upper.main, upper.naor and upper.prob.loose
        ["bounds", "--u", "1", "--m", "1", "--n", "1"],
        "b1357a38493b212c65a6c99a5a09b24215d2abe6dcc7fd9a1047baadd998a6f4",
    ),
    "bounds-c-covers-universe": (  # u <= c*alpha universe note; mehlhorn needs c = 1
        ["bounds", "--u", "4", "--m", "2", "--n", "4", "--c", "2"],
        "49ba08b58cc04aeb718b3c0b64156cea4a87bad38620bc2ad34c3b78b2cacf10",
    ),
    "bounds-infeasible-cap": (  # both cap-below-ceil(alpha) notes; no upper entry or upper advice field applies
        ["bounds", "--u", "6", "--m", "2", "--n", "3"],
        "6439f92d98f6a6da1ef1e21413c57793be4a5470326d1cb80cd2d7187b50e6a0",
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
    "construct-yao-pigeonhole": (  # m*cap = 2 < n: one member, verified false, exit 0
        ["construct", "--method", "yao", "--u", "7", "--m", "2", "--n", "3"],
        "1997148a70d482ce01bf7452c9d492dc642aa9442b982da9ca3fd7fa716e8fe5",
    ),
    "construct-yao-five-equal-cells": (  # kernel path over 945 partitions; pool_size 113400
        ["construct", "--method", "yao", "--u", "10", "--m", "5", "--n", "5", "--t", "2.0"],
        "db9d843fbcd6363bfe8f6eddb9ad10dfd22455e17eb7bbc1e2cd179973517e1d",
    ),
    "verify-greedy": (
        ["verify", "--u", "8", "--m", "2", "--n", "4", "--family", "{family}"],
        "ce2e5923376efa2debf6fba7dbff1bb5df2674b0766052d23cb390fba9495f94",
    ),
    "simulate-max-load": (  # the stdlib inversion sampler: m = n = 64 is below its work bound
        ["simulate", "--kind", "max-load", "--m", "64", "--n", "64", "--trials", "500", "--seed", "7"],
        "8a8b9463ecdec3d198187ada8c85774c8ff25cef4578b1212562df8f3032bbbb",
    ),
    "simulate-ideal-prob": (
        ["simulate", "--kind", "ideal-prob", "--u", "16", "--m", "4", "--n", "8", "--c", "3/2", "--trials", "2000", "--seed", "5"],
        "5f1936dab75fe8ce9b31b35d03e37553e6ca0f93a3b297e7850a805259c17441",
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
        "f119676f16b090b1c491d4a97d1d290cd88c23e17095c55a3ed3881b8aeca288",
    ),
    "report-default": (  # no --format: the same bytes as report-csv
        REPORT,
        "f119676f16b090b1c491d4a97d1d290cd88c23e17095c55a3ed3881b8aeca288",
    ),
    "report-table": (
        REPORT + ["--format", "table"],
        "fb4df17c3f6b5d4ec6f2f011313a5bb75990d39309aec6b112cad5ccc358ce7d",
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
