"""Byte-for-byte pins on CLI stdout.

Each case runs one fast `idealhash` call in-process and compares the sha256
of its stdout with a recorded digest.  A change that alters any printed byte
of these calls fails here; a deliberate output change records new digests.
"""

import hashlib
import os

import pytest

from idealhash.cli import run

GREEDY = ["construct", "--method", "greedy", "--u", "8", "--m", "2", "--n", "4"]

CASES = {
    "exact": (
        ["exact", "--u", "8", "--m", "2", "--n", "4"],
        "3d90affd3d5b48c9adb17507dff5bd4954a2d61917252956bc6fee18f49e04cb",
    ),
    "exact-with-hc": (
        ["exact", "--u", "8", "--m", "2", "--n", "4", "--c", "3/2", "--with-hc"],
        "3c2a064913092ecbd40f717592930085e2b72fa2bab771e9eba1fb95250d31e9",
    ),
    "bounds-json": (
        ["bounds", "--u", "64", "--m", "4", "--n", "8", "--c", "3/2"],
        "17cb6464415e877194d565c04b4f00c75bc578b1fed27b379bb3b4250f7987ee",
    ),
    "bounds-table": (
        ["bounds", "--u", "16", "--m", "4", "--n", "4", "--format", "table"],
        "daf678c5a37796ecc1120933178b1455bb994433c4ec18720cea22234a65359b",
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
    "verify-greedy": (
        ["verify", "--u", "8", "--m", "2", "--n", "4", "--family", "{family}"],
        "ce2e5923376efa2debf6fba7dbff1bb5df2674b0766052d23cb390fba9495f94",
    ),
    "check-lemmas": (
        ["check-lemmas"],
        "2fed0f76f14fd2994c0b0ad441655128fc655b769ab21b8c1a2e3e59be35af83",
    ),
    "report-csv": (
        ["report", "--u", "8,16,256", "--m", "2,4", "--n", "4,8", "--c", "1,3/2", "--format", "csv"],
        "a435fb8295ec14c683eed4941499f50b3f7a1e0e8297f5fb83ad02a50ef337b0",
    ),
}


@pytest.fixture
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("IDEALHASH_"):
            monkeypatch.delenv(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest(name, capsys, tmp_path, clean_env):
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
