"""Regenerate `reference.json`: the values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Two kinds of reference:

* sha256 digests of the stdout of every deterministic call (full and small
  workloads), taken by running the CLI of the checkout this script sits in.
  ROADMAP aim 1 pins these bytes, so regenerate only at the commit that
  defines the expected output.
* exact values computed here without the `idealhash` package: ideality
  probabilities from an exact big-integer power of the capped cell
  polynomial, expected maximum loads from the Poisson-conditioned form, and
  `upper.prob.tight` at 50 decimal digits.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from launch import launch_argv, launch_env  # noqa: E402


def ideal_count(u: int, m: int, n: int, cap: int) -> int:
    """[x^n] P(x)^m with P(x) = sum_{l<=cap} C(u/m, l) x^l (needs m | u)."""
    if u % m:
        raise ValueError("reference counting needs m | u")
    beta = u // m

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * min(n + 1, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[: len(out) - i]):
                    out[i + j] += x * y
        return out

    result, base, k = [1], [math.comb(beta, l) for l in range(min(cap, beta) + 1)], m
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result[n] if n < len(result) else 0


def expected_max_load(n: int, m: int) -> float:
    """E[max load] of n uniform throws into m cells.

    P(max <= t) = P(Y_1..Y_m <= t | sum Y = n) for i.i.d. Poisson(n/m) Y_i,
    which is q^m * P(S'_m = n) / P(Poisson(n) = n) with q = P(Y <= t) and S'_m
    a sum of m Poissons truncated to <= t.  P(S'_m = n) comes from a
    scaled float convolution power.
    """
    alpha = n / m
    log_pois_n = n * math.log(n) - n - math.lgamma(n + 1)
    expect = 0.0
    for t in range(n):
        ln_pmf = np.array([l * math.log(alpha) - alpha - math.lgamma(l + 1) for l in range(min(t, n) + 1)])
        q = float(np.exp(ln_pmf).sum())
        trunc = np.exp(ln_pmf) / q
        # exponentiation by squaring; renormalise each factor and track the log scale
        result, scale_r = np.array([1.0]), 0.0
        base, scale_b, k = trunc, 0.0, m
        while k:
            if k & 1:
                result = np.convolve(result, base)[: n + 1]
                s = result.max()
                result, scale_r = result / s, scale_r + scale_b + math.log(s)
            k >>= 1
            if k:
                base = np.convolve(base, base)[: n + 1]
                s = base.max()
                base, scale_b = base / s, 2 * scale_b + math.log(s)
        if len(result) <= n or result[n] <= 0:
            p_le = 0.0
        else:
            p_le = math.exp(m * math.log(q) + math.log(result[n]) + scale_r - log_pois_n)
        expect += 1.0 - min(1.0, p_le)
        if p_le > 1 - 1e-15:
            break
    return expect


def tight_upper(u: int, m: int, n: int, c: Fraction) -> str:
    """1 + ln C(u,n) / -ln(1-p) at 50 digits, p = M_c / C(u,n)."""
    getcontext().prec = 50
    cap = math.floor(c * Fraction(n, m))
    total = math.comb(u, n)
    m_c = ideal_count(u, m, n, cap)
    ln_total = Decimal(total).ln()
    ln_miss = (Decimal(total - m_c) / Decimal(total)).ln()
    return str(1 + ln_total / -ln_miss)


def digests() -> dict[str, str]:
    out: dict[str, str] = {}
    work = ROOT / ".perfbench_work"
    for small in (False, True):
        for name in workloads.WORKLOADS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            for call in workloads.build(name, 1, work, small):
                if call.check[0] != "digest":
                    continue
                proc = subprocess.run(
                    launch_argv(call.argv), env=launch_env(ROOT), cwd=ROOT,
                    capture_output=True, check=True,
                )
                out[("small/" if small else "") + call.name] = hashlib.sha256(proc.stdout).hexdigest()
    shutil.rmtree(work, ignore_errors=True)
    return out


def main() -> None:
    u = 1_000_000
    c32 = Fraction(3, 2)
    ref = {
        "digests": digests(),
        "estimates": {
            "ideal_prob_u1000000": float(Fraction(ideal_count(u, 16, 256, 24), math.comb(u, 256))),
            "ideal_prob_u4096": float(Fraction(ideal_count(4096, 8, 64, 12), math.comb(4096, 64))),
            "max_load_m16384": expected_max_load(16384, 16384),
            "max_load_m256": expected_max_load(256, 256),
        },
        "upper_prob_tight": {
            "n600": tight_upper(u, 16, 600, c32),
            "n128": tight_upper(u, 16, 128, Fraction(1)),
            "n256": tight_upper(u, 16, 256, Fraction(1)),
        },
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
