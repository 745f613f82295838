"""Closed-form bounds on the minimal ideal-family size and on advice bits.

Every bound takes one validated `Params` point (n >= m, u >= n, exact
c >= 1) and none checks those again; so the fk pair, whose proofs need
n <= m, applies only at n = m >= 2, c = 1.  Family sizes are
exp(Theta(m)), so each bound is carried as its natural log, a finite float;
a bound that rounds to zero or fewer functions does not apply, and an upper
entry below one function is raised to one (ln 0).  Each
`_eval_*` builds the entries of one bound, or raises BoundNotApplicableError
with a note saying why the bound does not apply; report assembly
(`_entries`) turns that note into an entry whose ln is None, so sweeps over
mixed-domain grids stay total; no bound does work that grows with n past
desk scale.  Stable entry names:

    lower.volume  lower.main  lower.universe  lower.fk  lower.mehlhorn
    upper.prob.tight  upper.prob.loose  upper.main  upper.naor  upper.yao
    upper.fk  advice.*
"""

from __future__ import annotations

import decimal
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import _stirlerr, ln_fraction
from .errors import BoundNotApplicableError
from .hashspace import Params
from .oracle import IdealCount, exact_ideal_probability

# Desk scale of exact big-integer work: terms * log2(u) up to this many bits.
# Past it the counting DP is skipped, since its coefficients grow with
# n * log2(u), and so are the bounds that read its count.
DESK_SCALE_BITS = 200_000


class BoundEntry(NamedTuple):
    """One named bound: ln is its natural log when the bound applies at the
    parameter point, None when it does not, and validity_note then says why."""

    name: str
    ln: float | None
    validity_note: str = ""
    epsilon: Fraction = Fraction(0)
    ceiling: int | None = None  # integer form, where one is meaningful and finite

    @property
    def kind(self) -> str:
        """The name's prefix: "lower" or "upper"."""
        return self.name.partition(".")[0]

    @property
    def valid(self) -> bool:
        return self.ln is not None


class BoundReport(NamedTuple):
    params: Params
    entries: tuple[BoundEntry, ...]

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


class AdviceReport(NamedTuple):
    """Advice-bit consequences of the family-size bounds.

    lower_easy and lower_easy_bits are the universe (indistinguishability)
    lower bound in nats and in bits: the printed log base is ambiguous, so
    both are reported.  All other fields are log2 of the corresponding
    family-size bounds.  Every field is clamped at zero; an upper field is
    None where the entry it reads does not apply.
    """

    lower_easy: float
    lower_easy_bits: float
    lower_main: float
    upper_main: float | None
    notes: tuple[str, ...] = ()


def lower_main(p: Params, eps: Fraction) -> float:
    """ln of (1-eps) * exp(m * e^-alpha * (1-eps) * (alpha/(c*alpha+1))^(c*alpha+1))."""
    if not 0 <= eps < 1:  # checked exactly: float(eps) overflows past the float range
        raise ValueError("need eps in [0, 1)")
    epsf = float(eps)
    # float(eps) rounds to 1.0 within 2**-54 of 1, where ln(1 - eps) is taken exactly
    ln_keep = math.log1p(-epsf) if epsf < 1 else ln_fraction(1 - eps)
    ca1 = p.c * p.alpha + 1
    term = math.exp(-float(p.alpha)) * (1.0 - epsf) * float(p.alpha / ca1) ** float(ca1)
    return ln_keep + p.m * term


def lower_universe(p: Params) -> float:
    """(ln u - ln(c*alpha)) / ln m: indistinguishable keys force this many functions.

    Needs c*alpha < n (i.e. c < m): the argument packs floor(c*alpha)+1
    indistinguishable keys into one key set, which must fit inside n keys.
    """
    ca = p.c * p.alpha
    if p.m < 2:
        raise BoundNotApplicableError("universe bound needs m >= 2")
    if ca >= p.u:
        raise BoundNotApplicableError("universe bound needs u > c*alpha")
    if ca >= p.n:
        raise BoundNotApplicableError("universe bound needs c < m (else a single function suffices)")
    return (math.log(p.u) - ln_fraction(ca)) / math.log(p.m)


def upper_main_base_nats(alpha: Fraction, c: Fraction) -> float:
    """Per-cell coefficient of ln(upper bound): (1/2c)ln(2*pi*c*alpha) + alpha*ln c
    + 1/(12c^2 alpha) - (1-1/c)ln(alpha+1)."""
    af = float(alpha)
    cf = float(c)
    return (
        (1.0 / (2.0 * cf)) * math.log(2.0 * math.pi * cf * af)
        + af * math.log(cf)
        + 1.0 / (12.0 * cf * cf * af)
        - (1.0 - 1.0 / cf) * math.log1p(af)
    )


def upper_main(p: Params) -> float:
    """ln of the pre-ceiling value of the main upper bound.

    (sqrt(2*pi*c*alpha)^(1/c) * c^alpha * e^(1/(12c^2 alpha)) / (alpha+1)^(1-1/c))^m
    * sqrt(n/(2*pi)) * ln u.
    """
    if p.u < 2:
        raise BoundNotApplicableError("main upper bound needs u >= 2 (it carries ln ln u)")
    return (
        p.m * upper_main_base_nats(p.alpha, p.c)
        + 0.5 * math.log(p.n / (2.0 * math.pi))
        + math.log(math.log(p.u))
    )


def _ln_neg_ln1m(a: int, b: int) -> float:
    """ln(-ln(1-q)) for q = a/b with 0 < a < b, free of cancellation.

    a and b need not be coprime, so no gcd is taken.  log1p takes q while
    a/b is a normal float.  Below that -ln(1-q) is q within a relative error
    of q/2, so ln q stands in.  Above 1/2, where a/b may round to 1,
    -ln(1-q) = ln(b/(b-a)) exactly.
    """
    if 2 * a > b:
        return math.log(math.log(b) - math.log(b - a))
    qf = a / b
    if qf >= sys.float_info.min:
        return math.log(-math.log1p(-qf))
    return math.log(a) - math.log(b)


def _tight_ceiling(total: int, m_c: int, ln_r: float) -> int | None:
    """1 + floor(r), r = ln C(u,n) / -ln(1-p), p = M_c / C(u,n); None past the float range.

    r is evaluated in decimal with -ln(1-p) = ln(C / (C - M_c)), whose
    argument lies about p above 1, so the digits carried are those of r and
    of 1/p plus 30 guard digits.  r is an integer j exactly when C / (C - M_c)
    is an integer b with b^j = C, which integers decide.
    """
    if m_c == total:
        return 1
    if ln_r > math.log(sys.float_info.max):
        return None
    with decimal.localcontext() as ctx:
        ctx.prec = 30 + math.ceil(max(ln_r, 0.0) / math.log(10) + (total.bit_length() - m_c.bit_length()) * math.log10(2))
        c = ctx.create_decimal(total)
        r = c.ln() / (c / ctx.create_decimal(total - m_c)).ln()
    b, rem = divmod(total, total - m_c)
    return 1 + (round(r) if rem == 0 and b ** round(r) == total else math.floor(r))


def _entries(names: tuple[str, ...], build, *args) -> tuple[BoundEntry, ...]:
    """The entries `build(*args)` returns, or one null entry per name carrying
    the note of the BoundNotApplicableError it raised.  An upper entry's ln is
    floored at 0: every family holds at least one function."""
    try:
        entries = build(*args)
    except BoundNotApplicableError as exc:
        return tuple(BoundEntry(name, None, str(exc)) for name in names)
    return tuple(e._replace(ln=0.0) if e.kind == "upper" and e.ln is not None and e.ln < 0 else e for e in entries)


def _require_family(p: Params) -> None:
    """Not applicable where m * floor(c*alpha) < n: no n keys fit under the
    cap, so no function is c-ideal for any set (M_c = 0) and no family exists."""
    if p.m * p.load_cap < p.n:
        raise BoundNotApplicableError("cap below ceil(alpha): no ideal family exists")


def _count_ratio(count: IdealCount | None, infeasible: str) -> Fraction:
    """C(u,n) / M_c; not applicable when counting was skipped (count is None)
    or no function is ideal for any set (M_c = 0), `infeasible` saying why
    the latter voids the bound."""
    if count is None:
        raise BoundNotApplicableError("counting skipped: n * log2(u) beyond desk scale")
    if count.m_c == 0:
        raise BoundNotApplicableError(f"cap below ceil(alpha): {infeasible}")
    return Fraction(count.total, count.m_c)


def _eval_volume(count: IdealCount | None, ceilings: bool) -> tuple[BoundEntry]:
    """lower.volume: C(u,n)/M_c, since one function is ideal for M_c sets."""
    ratio = _count_ratio(count, "no function is ideal for any set")
    ceiling = math.ceil(ratio) if ceilings else None
    return (BoundEntry("lower.volume", ln_fraction(ratio), "exact counting", ceiling=ceiling),)


def _eval_prob(p: Params, count: IdealCount | None, ceilings: bool) -> tuple[BoundEntry, BoundEntry, BoundEntry]:
    """upper.prob.tight, upper.prob.loose and upper.yao from p = M_c / C(u,n).

    Tight: 1 + r before ceiling and 1 + floor(r) functions after, with
    r = ln C(u,n) / -ln(1-p).  Loose: v = (C(u,n)/M_c) * n * ln u, not
    applicable at u = 1.  A ceiling past the float range is None, and so is
    every ceiling when `ceilings` is false, which skips their decimal work.
    Yao: floor(ln C(u,n) / ln t) + 1 rounds, each keeping at most 1/t of the
    live sets; averaging over balanced functions proves 1/t = 1 - p, and
    there the count is tight's.
    """
    ratio = _count_ratio(count, "no ideal family exists")
    total, m_c = count.total, count.m_c
    ln_r = -math.inf if m_c == total else math.log(math.log(total)) - _ln_neg_ln1m(ratio.denominator, ratio.numerator)
    tight = BoundEntry(
        name="upper.prob.tight",
        ln=max(ln_r, 0.0) + math.log1p(math.exp(-abs(ln_r))),
        validity_note="exact p",
        ceiling=_tight_ceiling(total, m_c, ln_r) if ceilings else None,
    )
    yao = tight._replace(name="upper.yao", validity_note="t = 1/(1-p)")
    if p.u < 2:
        return tight, BoundEntry("upper.prob.loose", None, "needs u >= 2 (it carries ln ln u)"), yao
    ln_loose = ln_fraction(ratio * p.n) + math.log(math.log(p.u))
    loose = BoundEntry("upper.prob.loose", ln_loose, "exact p")
    if ceilings and ln_loose <= math.log(sys.float_info.max):  # ln u is irrational, so v is no integer: ceil(v) = 1 + floor(v)
        with decimal.localcontext() as ctx:  # 30 guard digits beyond v's own, as in `_tight_ceiling`
            ctx.prec = 30 + math.ceil(max(ln_loose, 0.0) / math.log(10))
            v = ctx.create_decimal(ratio.numerator * p.n) / ratio.denominator * ctx.create_decimal(p.u).ln()
        loose = loose._replace(ceiling=1 + math.floor(v))
    return tight, loose, yao


def _eval_lower_main(p: Params, eps: Fraction) -> tuple[BoundEntry]:
    ln = lower_main(p, eps)  # first, so an invalid eps is refused at every c
    if p.c >= p.m:
        raise BoundNotApplicableError("c >= m: a single function suffices")
    return (BoundEntry("lower.main", ln, "asymptotic in n" if eps == 0 else "", epsilon=eps),)


def _eval_universe(p: Params, ceilings: bool) -> tuple[BoundEntry]:
    """lower.universe; its ceiling is the least k with m^k * c*alpha >= u, in integers."""
    lu = lower_universe(p)
    if lu <= 0:
        raise BoundNotApplicableError("c*alpha lies within float rounding of u: ln u - ln(c*alpha) rounds to <= 0")
    k = None
    if ceilings:
        ca = p.c * p.alpha
        k = max(1, math.ceil(lu) - 1)  # lu errs by far less than 1
        while p.m**k * ca.numerator < p.u * ca.denominator:
            k += 1
    return (BoundEntry("lower.universe", math.log(lu), ceiling=k),)


def _eval_upper_main(p: Params) -> tuple[BoundEntry]:
    """upper.main, without a ceiling: its value is a float formula, as upper.naor's is."""
    _require_family(p)
    integral = (p.c * p.alpha).denominator == 1
    note = "" if integral else "cap floor(c*alpha) substituted (c*alpha not integral)"
    return (BoundEntry("upper.main", upper_main(p), note),)


def _eval_fk(p: Params) -> tuple[BoundEntry, BoundEntry]:
    """lower.fk and upper.fk, the perfect-hashing counting pair; the proofs
    do not generalize to n > m, so with n >= m they apply at n = m only,
    where their m - n + 2 is 2 and q = m!/m^m is the chance a function is perfect.
    ln q is the float kernel's Stirling series, which subtracts no two totals of
    size m ln m; upper.fk's -ln(1-q) is exact at desk scale and ln q past it."""
    if not (2 <= p.n <= p.m and p.c == 1):
        raise BoundNotApplicableError("requires 2 <= n <= m, c = 1")
    u, m = p.u, p.m
    ln_q = 0.5 * math.log(2 * math.pi * m) - m + _stirlerr(m)
    lower_ln = math.log(math.log(u)) - math.log(math.log(2)) - math.log(m) - ln_q
    if m * m.bit_length() <= DESK_SCALE_BITS:
        ln_neg_ln1m_q = _ln_neg_ln1m(math.factorial(m), m**m)
    else:  # q is far below the float range, so -ln(1-q) is q within q/2
        ln_neg_ln1m_q = ln_q
    upper_ln = math.log(m) + math.log(math.log(u)) - ln_neg_ln1m_q
    note = "asymptotic order, natural logs"
    return (BoundEntry("lower.fk", lower_ln, note), BoundEntry("upper.fk", upper_ln, note))


def _eval_naor(p: Params) -> tuple[BoundEntry]:
    """ln of the perfect-splitter bound sqrt(2*pi*alpha)^m * e^(m/(12*alpha)) * sqrt(n/(2*pi)) * ln u:
    the main upper bound at c = 1, behind this entry's own guard and note."""
    if p.u < 2:
        raise BoundNotApplicableError("needs u >= 2 (it carries ln ln u)")
    _require_family(p)
    ln = upper_main(Params(p.u, p.m, p.n))
    return (BoundEntry("upper.naor", ln, "normalized sqrt(n/2pi); classical display uses sqrt(n)"),)


def _eval_mehlhorn(p: Params) -> tuple[BoundEntry]:
    """Straightforward Stirling lower estimate for c = 1."""
    if p.c != 1:
        raise BoundNotApplicableError("requires c = 1, alpha >= 1")
    ln = (p.m - 1) * 0.5 * math.log(2.0 * math.pi * float(p.alpha)) - 0.5 * math.log(p.m)
    return (BoundEntry("lower.mehlhorn", ln, "Stirling approximation, c = 1 only"),)


def comparison_bounds(p: Params) -> tuple[BoundEntry, ...]:
    """Literature comparison entries with per-entry domain guards."""
    return (
        *_entries(("lower.fk", "upper.fk"), _eval_fk, p),
        *_entries(("upper.naor",), _eval_naor, p),
        *_entries(("lower.mehlhorn",), _eval_mehlhorn, p),
    )


def advice_report(report: BoundReport) -> AdviceReport:
    """Advice-bit forms of the report's family-size bounds, clamped at zero."""
    p = report.params
    if p.c >= p.m:
        return AdviceReport(
            lower_easy=0.0,
            lower_easy_bits=0.0,
            lower_main=0.0,
            upper_main=0.0,
            notes=("c >= m: a single function suffices, zero advice bits",),
        )
    # c < m gives m >= 2 and c*alpha < n <= u, so the universe bound applies
    easy = lower_universe(p)  # may round to 0 when c*alpha is within an ulp of u
    main_ln = report.entry("upper.main").ln
    return AdviceReport(
        lower_easy=math.log(easy) if easy > 1 else 0.0,
        lower_easy_bits=math.log2(easy) if easy > 1 else 0.0,
        lower_main=max(0.0, report.entry("lower.main").ln / math.log(2.0)),
        upper_main=None if main_ln is None else max(0.0, main_ln / math.log(2.0)),
    )


def bound_report(p: Params, eps: Fraction = Fraction(0), ceilings: bool = True) -> BoundReport:
    """Assemble every named bound for one parameter point.

    The volume and probabilistic entries share one exact count (cheap at any
    u: one power per fiber size, or half of one where all m fibers are
    equal, m is even and that is cheaper, never subset enumeration), skipped
    past desk scale.  The eps entry is built first, so an invalid eps is refused
    before the counting work.  With `ceilings` false every entry's ceiling
    is None and none is computed: `bounds` prints ceilings, `report` prints
    only natural logs.
    """
    main = _entries(("lower.main",), _eval_lower_main, p, eps)
    count = None if p.n * max(1, p.u.bit_length()) > DESK_SCALE_BITS else exact_ideal_probability(p)
    tight, loose, yao = _entries(("upper.prob.tight", "upper.prob.loose", "upper.yao"), _eval_prob, p, count, ceilings)
    entries = (
        *_entries(("lower.volume",), _eval_volume, count, ceilings),
        *main,
        *_entries(("lower.universe",), _eval_universe, p, ceilings),
        tight,
        loose,
        *_entries(("upper.main",), _eval_upper_main, p),
        yao,
        *comparison_bounds(p),
    )
    return BoundReport(params=p, entries=entries)
