"""Output checks: does one call's stdout say what it must?

Deterministic calls are pinned by a sha256 of stdout (ROADMAP aim 1).
Seeded calls are checked by meaning, so that a change to seeded bytes that
keeps the statistics right still passes while a biased result fails.
Every reference comes from `reference.json`, computed before any timing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# the ten bound names `report` tabulates; `bounds` must emit every one
STABLE_BOUNDS = (
    "lower.volume",
    "lower.main",
    "lower.universe",
    "lower.fk",
    "lower.mehlhorn",
    "upper.prob.tight",
    "upper.prob.loose",
    "upper.main",
    "upper.naor",
    "upper.yao",
)
TIGHT_REL_TOL = 1e-6
ESTIMATE_SIGMAS = 5.0


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def failure_reason(call, returncode: int, stdout: bytes, stderr: bytes, ref: dict, small: bool) -> str | None:
    """None when the call succeeded, else a one-line reason it failed."""
    if b"Traceback" in stderr:
        last = stderr.decode("utf-8", "replace").strip().splitlines()[-1]
        return f"traceback: {last}"
    if returncode != 0:
        return f"exit code {returncode}"
    if not stdout.strip():
        return "empty stdout"
    try:
        return _CHECKS[call.check[0]](call, stdout, ref, small)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _digest(call, stdout, ref, small):
    key = ("small/" if small else "") + call.name
    got = hashlib.sha256(stdout).hexdigest()
    want = ref["digests"][key]
    return None if got == want else f"sha256 {got[:12]} != pinned {want[:12]}"


def _args(call) -> dict[str, str]:
    argv = call.argv
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _random_construct(call, stdout, ref, small):
    out = json.loads(stdout)
    if out["verified"] is not True:
        return "random construct not verified"
    if out["family_size"] != len(out["family"]) or out["rounds"] != len(out["uncovered_per_round"]):
        return "construction log is inconsistent"
    if out["uncovered_per_round"][-1] != 0:
        return "last round leaves key sets uncovered"
    return None


def _ideal_family(call, stdout, ref, small):
    out = json.loads(stdout)
    if out["covered"] != out["total"] or out["is_ideal_family"] is not True:
        return f"covered {out['covered']} of {out['total']}"
    if out["total"] != math.comb(int(_args(call)["u"]), int(_args(call)["n"])):
        return "total is not C(u,n)"
    return None


def _not_ideal_family(call, stdout, ref, small):
    out = json.loads(stdout)
    a = _args(call)
    u, m, n = int(a["u"]), int(a["m"]), int(a["n"])
    cap = math.floor(Fraction(a.get("c", "1")) * Fraction(n, m))
    witness = out["uncovered_witness"]
    if out["is_ideal_family"] is not False or witness is None:
        return "non-ideal family reported ideal"
    if len(set(witness)) != n or not all(1 <= k <= u for k in witness):
        return f"witness {witness} is not an n-subset of 1..u"
    if not 0 <= out["covered"] < out["total"] == math.comb(u, n):
        return "covered/total out of range"
    family_path = Path(call.check[1])
    for line in family_path.read_text(encoding="utf-8").split("\n"):
        if not line.strip():
            continue
        cells = [int(tok) for tok in line.split()]
        loads = [0] * (m + 1)
        for key in witness:
            loads[cells[key - 1]] += 1
        if max(loads) <= cap:
            return f"witness {witness} is covered by a member"
    return None


def _bounds(call, stdout, ref, small):
    out = json.loads(stdout)
    by_name = {e["name"]: e for e in out["bounds"]}
    missing = [n for n in STABLE_BOUNDS if n not in by_name]
    if missing:
        return f"missing bounds {missing}"
    want = Decimal(ref["upper_prob_tight"][call.check[1]])
    ln = by_name["upper.prob.tight"]["ln"]
    if ln is None:
        return "upper.prob.tight missing a value"
    rel = float(Decimal(ln).exp() / want - 1)
    if not abs(rel) <= TIGHT_REL_TOL:
        return f"upper.prob.tight off by {rel:+.3e} relative to the 50-digit reference"
    return None


def _report(call, stdout, ref, small):
    a = _args(call)
    grid = [
        (u, m, n, str(Fraction(c)))
        for u in a["u"].split(",")
        for m in a["m"].split(",")
        for n in a["n"].split(",")
        for c in a["c"].split(",")
        if int(n) >= int(m) and int(u) >= int(n)
    ]
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
    header, body = rows[0], rows[1:]
    if header[:4] != ["u", "m", "n", "c"] or any(b not in header for b in STABLE_BOUNDS):
        return "report header is wrong"
    if [tuple(r[:4]) for r in body] != grid:
        return f"report has {len(body)} rows for {len(grid)} grid points"
    return None


def _estimate(call, stdout, ref, small):
    out = json.loads(stdout)
    a = _args(call)
    trials = int(a["trials"])
    if out["trials"] != trials or out["seed"] != int(a["seed"]):
        return "trials or seed not echoed"
    want = ref["estimates"][call.check[1]]
    if a["kind"] == "ideal-prob":
        se = math.sqrt(want * (1 - want) / trials)
    else:
        se = out["ci95_halfwidth"] / 1.96
    if not se > 0:
        return "zero standard error"
    z = (out["mean"] - want) / se
    if not abs(z) <= ESTIMATE_SIGMAS:
        return f"mean {out['mean']} is {z:+.1f} standard errors from exact {want}"
    return None


_CHECKS = {
    "digest": _digest,
    "random_construct": _random_construct,
    "ideal_family": _ideal_family,
    "not_ideal_family": _not_ideal_family,
    "bounds": _bounds,
    "report": _report,
    "estimate": _estimate,
}
