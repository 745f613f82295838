"""Closed-form bounds on the minimal ideal-family size and on advice bits.

Every evaluator is a pure function of its parameters.  Report assembly pairs
each named bound with a validity flag instead of raising, so sweeps over
mixed-domain grids stay total.  Stable entry names:

    lower.volume  lower.main  lower.universe  lower.fk  lower.mehlhorn
    upper.prob.tight  upper.prob.loose  upper.main  upper.naor  upper.yao
    upper.fk  advice.*
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import LogReal, binom, ln_fraction
from .errors import BoundNotApplicableError
from .hashspace import Params, balanced_fiber_sizes
from .oracle import count_ideal_sets

# Printed floor for the per-cell coefficient of the main upper bound at the
# perfect-hashing corner; reproduced numerically rather than assumed.
UPPER_BASE_CLAIMED_FLOOR = 1.002

# Desk scale of exact big-integer work: terms * log2(u) up to this many bits.
# Past it ln C(u,n) is summed term by term and the counting DP is skipped,
# since its coefficients grow with n * log2(u).
DESK_SCALE_BITS = 200_000


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str  # "lower" | "upper"
    value: LogReal | None
    valid: bool
    validity_note: str = ""
    epsilon: Fraction = Fraction(0)
    ceiling: int | None = None  # integer form, where one is meaningful and finite


@dataclass(frozen=True)
class BoundReport:
    params: Params
    entries: tuple[BoundEntry, ...]

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


@dataclass(frozen=True)
class AdviceReport:
    """Advice-bit consequences of the family-size bounds.

    lower_easy is evaluated verbatim in nats (the printed form of the
    indistinguishability bound); lower_easy_bits is log2 of the universe
    lower bound, reported alongside since the printed log base is ambiguous.
    All other fields are log2 of the corresponding family-size bounds,
    clamped at zero.
    """

    lower_easy: float
    lower_easy_bits: float
    lower_main: float
    upper_main: float
    upper_yao: float
    notes: tuple[str, ...] = field(default_factory=tuple)


def lower_main(m: int, alpha: Fraction, c: Fraction, eps: Fraction | float = 0) -> LogReal:
    """(1-eps) * exp(m * e^-alpha * (1-eps) * (alpha/(c*alpha+1))^(c*alpha+1))."""
    alpha = Fraction(alpha)
    c = Fraction(c)
    epsf = float(eps)
    if not 0 <= epsf < 1:
        raise ValueError("need eps in [0, 1)")
    ca1 = c * alpha + 1
    term = math.exp(-float(alpha)) * (1.0 - epsf) * float(alpha / ca1) ** float(ca1)
    log_value = math.log1p(-epsf) + m * term
    return LogReal.from_ln(log_value)


def lower_universe(u: int, m: int, n: int, c: Fraction | int) -> float:
    """(ln u - ln(c*alpha)) / ln m: indistinguishable keys force this many functions.

    Needs c*alpha < n (i.e. c < m): the argument packs floor(c*alpha)+1
    indistinguishable keys into one key set, which must fit inside n keys.
    """
    c = Fraction(c)
    ca = c * Fraction(n, m)
    if m < 2:
        raise BoundNotApplicableError("universe bound needs m >= 2")
    if ca >= u:
        raise BoundNotApplicableError("universe bound needs u > c*alpha")
    if ca >= n:
        raise BoundNotApplicableError("universe bound needs c < m (else a single function suffices)")
    return (math.log(u) - ln_fraction(ca)) / math.log(m)


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


def upper_main(u: int, n: int, m: int, c: Fraction | int) -> LogReal:
    """Pre-ceiling value of the main upper bound, log scale.

    (sqrt(2*pi*c*alpha)^(1/c) * c^alpha * e^(1/(12c^2 alpha)) / (alpha+1)^(1-1/c))^m
    * sqrt(n/(2*pi)) * ln u.
    """
    c = Fraction(c)
    alpha = Fraction(n, m)
    if alpha < 1:
        raise BoundNotApplicableError("main upper bound needs alpha >= 1")
    if c < 1:
        raise ValueError("need c >= 1")
    log_value = (
        m * upper_main_base_nats(alpha, c)
        + 0.5 * math.log(n / (2.0 * math.pi))
        + math.log(math.log(u))
    )
    return LogReal.from_ln(log_value)


def ln_binom(u: int, n: int) -> float:
    """ln C(u,n) from exact terms: the big integer itself at desk scale, the
    term-by-term log sum when materializing C(u,n) would be expensive."""
    if n < 0 or n > u:
        raise ValueError("need 0 <= n <= u")
    k = min(n, u - n)
    if k * max(1, u.bit_length()) <= DESK_SCALE_BITS:
        return math.log(binom(u, n))
    return sum(math.log(u - i) - math.log(i + 1) for i in range(k))


def upper_yao(u: int, n: int, t: float) -> int:
    """floor(ln C(u,n) / ln t) + 1 rounds of covering at shrink factor 1/t."""
    if not 1 < t < math.inf:
        raise ValueError("need 1 < t < inf")
    if not 1 <= n <= u:
        raise ValueError("need 1 <= n <= u")
    return math.floor(ln_binom(u, n) / math.log(t)) + 1


def _ln_neg_ln1m(q: Fraction) -> float:
    """ln(-ln(1-q)) for a rational 0 < q < 1, free of cancellation.

    log1p takes q while float(q) is a normal float.  Below that -ln(1-q) is
    q within a relative error of q/2, so ln q stands in.  Above 1/2, where
    float(q) may round to 1, -ln(1-q) = ln(b/(b-a)) for q = a/b exactly.
    """
    a, b = q.numerator, q.denominator
    if 2 * a > b:
        return math.log(ln_fraction(Fraction(b, b - a)))
    qf = float(q)
    if qf >= sys.float_info.min:
        return math.log(-math.log1p(-qf))
    return ln_fraction(q)


def _entries_from_count(u: int, n: int, total: int, m_c: int) -> tuple[BoundEntry, BoundEntry, BoundEntry]:
    """lower.volume, upper.prob.tight and upper.prob.loose from M_c of the
    C(u,n) key sets, 0 < M_c <= C(u,n), p = M_c / C(u,n).

    Volume: C(u,n)/M_c.  Tight: 1 + r before ceiling and 1 + floor(r)
    functions after, with r = ln C(u,n) / -ln(1-p).  Loose: (C(u,n)/M_c) *
    n * ln u.  Values are carried in log space; a ceiling past the float
    range is None.
    """
    ratio = Fraction(total, m_c)
    ln_r = -math.inf if m_c == total else math.log(math.log(total)) - _ln_neg_ln1m(1 / ratio)
    r = LogReal.from_ln(ln_r).to_float()
    try:
        loose_ceiling = math.ceil(float(ratio) * n * math.log(u))
    except OverflowError:
        loose_ceiling = None
    return (
        BoundEntry(
            name="lower.volume",
            kind="lower",
            value=LogReal.from_value(ratio),
            valid=True,
            validity_note="exact counting",
            ceiling=math.ceil(ratio),
        ),
        BoundEntry(
            name="upper.prob.tight",
            kind="upper",
            value=LogReal.from_ln(max(ln_r, 0.0) + math.log1p(math.exp(-abs(ln_r)))),
            valid=True,
            validity_note="exact p",
            ceiling=None if math.isinf(r) else 1 + math.floor(r),
        ),
        BoundEntry(
            name="upper.prob.loose",
            kind="upper",
            value=LogReal.from_value(ratio * n) * LogReal.from_value(math.log(u)),
            valid=True,
            validity_note="exact p",
            ceiling=loose_ceiling,
        ),
    )


def probability_upper(u: int, n: int, m_c: int) -> tuple[int, int]:
    """Ceilings of both probabilistic covers: tight 1 + floor(-ln|S|/ln(1-p)), loose ceil((|S|/M)*n*ln u).

    Raises ValueError when a ceiling lies beyond the float range.
    """
    if m_c <= 0:
        raise ValueError("need m_c > 0")
    total = binom(u, n)
    if m_c > total:
        raise ValueError("m_c cannot exceed C(u,n)")
    _, tight, loose = _entries_from_count(u, n, total, m_c)
    if tight.ceiling is None or loose.ceiling is None:
        raise ValueError("probabilistic cover beyond the float range")
    return tight.ceiling, loose.ceiling


def _naor_form(u: int, n: int, m: int) -> LogReal:
    """Perfect-splitter upper bound, normalized to the c = 1 specialization.

    sqrt(2*pi*alpha)^m * e^(m/(12*alpha)) * sqrt(n/(2*pi)) * ln u; the
    classical display carries sqrt(n) in place of sqrt(n/(2*pi)).
    """
    af = n / m
    per_cell = 0.5 * math.log(2.0 * math.pi * af) + 1.0 / (12.0 * af)
    return LogReal.from_ln(
        m * per_cell + 0.5 * math.log(n / (2.0 * math.pi)) + math.log(math.log(u))
    )


def comparison_bounds(u: int, n: int, m: int, c: Fraction | int) -> tuple[BoundEntry, ...]:
    """Literature comparison entries with per-entry domain guards."""
    c = Fraction(c)
    alpha = Fraction(n, m)
    entries: list[BoundEntry] = []

    # perfect-hashing counting pair; the proofs do not generalize to n > m
    fk_ok = n <= m and c == 1 and m >= 2
    if fk_ok:
        lower_ln = (
            (n - 1) * math.log(m)
            + math.log(math.log(u))
            + math.lgamma(m - n + 2)
            - math.lgamma(m + 1)
            - math.log(math.log(m - n + 2))
        )
        entries.append(
            BoundEntry(
                name="lower.fk",
                kind="lower",
                value=LogReal.from_ln(lower_ln),
                valid=True,
                validity_note="asymptotic order, natural logs",
            )
        )
        q = Fraction(math.factorial(m), math.factorial(m - n) * m**n)
        if q < 1:
            upper_ln = math.log(n) + math.log(math.log(u)) - _ln_neg_ln1m(q)
            entries.append(
                BoundEntry(
                    name="upper.fk",
                    kind="upper",
                    value=LogReal.from_ln(upper_ln),
                    valid=True,
                    validity_note="asymptotic order, natural logs",
                )
            )
        else:
            note = "collision-free probability is 1 (m too small)"
            entries.append(BoundEntry("upper.fk", "upper", None, False, note))
    else:
        note = "requires n <= m, c = 1, m >= 2"
        entries.append(BoundEntry("lower.fk", "lower", None, False, note))
        entries.append(BoundEntry("upper.fk", "upper", None, False, note))

    # splitter upper bound, normalized to the c = 1 specialization
    if alpha >= 1:
        entries.append(
            BoundEntry(
                name="upper.naor",
                kind="upper",
                value=_naor_form(u, n, m),
                valid=True,
                validity_note="normalized sqrt(n/2pi); classical display uses sqrt(n)",
            )
        )
    else:
        entries.append(
            BoundEntry("upper.naor", "upper", None, False, "requires alpha >= 1")
        )

    # straightforward Stirling lower estimate for c = 1
    if c == 1 and alpha >= 1:
        mehl_ln = (m - 1) * 0.5 * math.log(2.0 * math.pi * float(alpha)) - 0.5 * math.log(m)
        entries.append(
            BoundEntry(
                name="lower.mehlhorn",
                kind="lower",
                value=LogReal.from_ln(mehl_ln),
                valid=True,
                validity_note="Stirling approximation, c = 1 only",
            )
        )
    else:
        entries.append(
            BoundEntry("lower.mehlhorn", "lower", None, False, "requires c = 1, alpha >= 1")
        )

    return tuple(entries)


def advice_report(
    u: int,
    n: int,
    m: int,
    c: Fraction | int,
    eps: Fraction | float = 0,
    t: float = 2.0,
) -> AdviceReport:
    """Advice-bit forms of the family-size bounds, clamped at zero."""
    c = Fraction(c)
    alpha = Fraction(n, m)
    notes: list[str] = []
    if c >= m:
        return AdviceReport(
            lower_easy=0.0,
            lower_easy_bits=0.0,
            lower_main=0.0,
            upper_main=0.0,
            upper_yao=0.0,
            notes=("c >= m: a single function suffices, zero advice bits",),
        )
    ca = c * alpha
    inner = math.log(u) - ln_fraction(ca)
    if inner > 0 and m >= 2:
        lower_easy = math.log(inner) - math.log(math.log(m))
    else:
        lower_easy = 0.0
        notes.append("easy lower bound not applicable (u <= c*alpha or m < 2)")
    try:
        lower_easy_bits = max(0.0, math.log2(lower_universe(u, m, n, c)))
    except (BoundNotApplicableError, ValueError):
        lower_easy_bits = 0.0
    lower_main_bits = max(0.0, lower_main(m, alpha, c, eps).log2())
    upper_main_bits = max(0.0, upper_main(u, n, m, c).log2())
    upper_yao_bits = max(0.0, math.log2(upper_yao(u, n, t)))
    return AdviceReport(
        lower_easy=max(0.0, lower_easy),
        lower_easy_bits=lower_easy_bits,
        lower_main=lower_main_bits,
        upper_main=upper_main_bits,
        upper_yao=upper_yao_bits,
        notes=tuple(notes),
    )


def upper_base_constant_check() -> dict:
    """Reproduce the printed floor for the per-cell upper-bound coefficient.

    Evaluates the coefficient at the perfect-hashing corner (c = alpha = 1)
    and searches a small integer-compatible grid for anything smaller.  The
    corner value is reported next to the printed floor; a smaller grid point
    is flagged rather than asserted away.
    """
    corner = upper_main_base_nats(Fraction(1), Fraction(1))
    best = corner
    best_at = (Fraction(1), Fraction(1))
    for alpha_int in range(1, 9):
        for c_num in range(1, 9):
            a = Fraction(alpha_int)
            cc = Fraction(c_num)
            if (cc * a).denominator != 1:
                continue
            val = upper_main_base_nats(a, cc)
            if val < best:
                best = val
                best_at = (a, cc)
    return {
        "corner_value_nats": corner,
        "claimed_floor": UPPER_BASE_CLAIMED_FLOOR,
        "corner_above_floor": corner > UPPER_BASE_CLAIMED_FLOOR,
        "grid_min_nats": best,
        "grid_min_at": (str(best_at[0]), str(best_at[1])),
        "grid_min_matches_corner": best == corner,
    }


def _counting_entries(p: Params) -> tuple[BoundEntry, BoundEntry, BoundEntry]:
    """lower.volume, upper.prob.tight and upper.prob.loose from the exact count M_c."""
    if p.n * max(1, p.u.bit_length()) > DESK_SCALE_BITS:
        volume_note = prob_note = "counting skipped: n * log2(u) beyond desk scale"
    else:
        m_c = count_ideal_sets(balanced_fiber_sizes(p.u, p.m), p.n, p.load_cap)
        if m_c > 0:
            return _entries_from_count(p.u, p.n, p.total_sets, m_c)
        volume_note = "cap below ceil(alpha): no function is ideal for any set"
        prob_note = "cap below ceil(alpha): no ideal family exists"
    return (
        BoundEntry("lower.volume", "lower", None, False, volume_note),
        BoundEntry("upper.prob.tight", "upper", None, False, prob_note),
        BoundEntry("upper.prob.loose", "upper", None, False, prob_note),
    )


def bound_report(
    p: Params,
    eps: Fraction | float = 0,
    t: float = 2.0,
) -> BoundReport:
    """Assemble every named bound for one parameter point.

    The volume and probabilistic entries use the exact counting core (cheap
    at any u: a polynomial convolution, never subset enumeration).
    """
    alpha = p.alpha
    eps_f = Fraction(eps) if not isinstance(eps, float) else Fraction(eps).limit_denominator(10**9)
    volume, tight, loose = _counting_entries(p)
    entries: list[BoundEntry] = [volume]

    entries.append(
        BoundEntry(
            name="lower.main",
            kind="lower",
            value=lower_main(p.m, alpha, p.c, eps_f),
            valid=True,
            validity_note="asymptotic in n" if eps_f == 0 else "",
            epsilon=eps_f,
        )
    )

    try:
        lu = lower_universe(p.u, p.m, p.n, p.c)
        entries.append(
            BoundEntry(
                name="lower.universe",
                kind="lower",
                value=LogReal.from_value(lu) if lu > 0 else LogReal.zero(),
                valid=True,
                ceiling=max(0, math.ceil(lu)),
            )
        )
    except BoundNotApplicableError as exc:
        entries.append(BoundEntry("lower.universe", "lower", None, False, str(exc)))

    entries.extend((tight, loose))

    non_integral = (p.c * alpha).denominator != 1
    try:
        um = upper_main(p.u, p.n, p.m, p.c)
        entries.append(
            BoundEntry(
                name="upper.main",
                kind="upper",
                value=um,
                valid=True,
                validity_note="cap floor(c*alpha) substituted (c*alpha not integral)"
                if non_integral
                else "",
                ceiling=um.ceil_int(),
            )
        )
    except BoundNotApplicableError as exc:
        entries.append(BoundEntry("upper.main", "upper", None, False, str(exc)))

    yao = upper_yao(p.u, p.n, t)
    entries.append(
        BoundEntry(
            name="upper.yao",
            kind="upper",
            value=LogReal.from_value(yao),
            valid=True,
            validity_note=f"t = {t}",
            ceiling=yao,
        )
    )

    entries.extend(comparison_bounds(p.u, p.n, p.m, p.c))

    return BoundReport(params=p, entries=tuple(entries))
