"""Command-line entry point: bounds, exact, verify, construct, simulate,
check-lemmas, report.

Exact rationals serialize as "numerator/denominator" strings, never floats.
Exit codes: 0 success, 1 budget or domain error, 2 usage error, 3 lemma-check
failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .combinatorics import binom_steps, exceeds
from .errors import BudgetExceededError
from .hashspace import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_POOL_BUDGET,
    Params,
    balanced_functions,
    family_from_text,
    family_to_text,
    set_partitions,
)

if TYPE_CHECKING:  # each handler imports the module it runs, so a call loads only its own
    from .bounds import BoundEntry


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(tok) for tok in text.split(",") if tok.strip()]


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--u", type=int, required=True, help="universe size")
    sp.add_argument("--m", type=int, required=True, help="table size")
    sp.add_argument("--n", type=int, required=True, help="key-set size")
    sp.add_argument("--c", type=_fraction, default=Fraction(1), help="ideality factor (rational, e.g. 3/2 or 1.5)")


def _add_budget_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET, help="enumeration budget on C(u,n), on u!/prod(beta_i!) for balanced pools and on m**u, which bounds the set partitions of all-function pools")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="idealhash", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("bounds", help="evaluate every named bound and the advice report")
    _add_param_flags(sp)
    sp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sp.add_argument("--eps", type=_fraction, default=Fraction(0))

    sp = sub.add_parser("exact", help="exact ideality count and probability")
    _add_param_flags(sp)
    _add_budget_flag(sp)
    sp.add_argument("--with-hc", action="store_true", help="also search the exact minimal family size")
    sp.add_argument("--size-limit", type=int, default=8)
    sp.add_argument("--pool-budget", type=int, default=DEFAULT_POOL_BUDGET)

    sp = sub.add_parser("verify", help="check a family file against every key set")
    _add_param_flags(sp)
    _add_budget_flag(sp)
    sp.add_argument("--family", type=str, required=True, help="file with one function per line")

    sp = sub.add_parser("construct", help="build a verified family")
    _add_param_flags(sp)
    _add_budget_flag(sp)
    sp.add_argument("--method", choices=("random", "greedy", "yao"), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-rounds", type=int, default=64)
    sp.add_argument("--t", type=float, default=2.0)
    sp.add_argument("--pool", choices=("balanced", "all"), default="balanced")
    sp.add_argument("--family-out", type=str, default=None, help="also write the family in text form")

    sp = sub.add_parser("simulate", help="Monte Carlo estimates")
    sp.add_argument("--kind", choices=("max-load", "ideal-prob"), required=True)
    sp.add_argument("--u", type=int, default=None, help="ideal-prob only, where it is required")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", type=_fraction, default=None, help="ideal-prob only (default 1)")
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("check-lemmas", help="run the exact inequality battery")
    sp.add_argument("--format", choices=("json", "csv", "table"), default="json")

    sp = sub.add_parser("report", help="sweep a parameter grid into a plot-ready table")
    sp.add_argument("--u", type=_int_list, required=True, help="comma-separated list")
    sp.add_argument("--m", type=_int_list, required=True)
    sp.add_argument("--n", type=_int_list, required=True)
    sp.add_argument("--c", type=_fraction_list, default=(Fraction(1),))
    sp.add_argument("--eps", type=_fraction, default=Fraction(0))
    sp.add_argument("--format", choices=("csv", "table"), default="csv")
    for sp in sub.choices.values():  # no flag starts "-<digit or .>", so such a word (-1/3, -1e400) is a value
        sp._negative_number_matcher = re.compile(r"-[\d.]")
    return ap


def _params_dict(p: Params) -> dict:
    return {
        "u": p.u,
        "m": p.m,
        "n": p.n,
        "c": str(p.c),
        "alpha": str(p.alpha),
        "load_cap": p.load_cap,
    }


def _entry_dict(e: BoundEntry) -> dict:
    return {
        "name": e.name,
        "kind": e.kind,
        "ln": e.ln,
        "log2": None if e.ln is None else e.ln / math.log(2.0),
        "ceiling": e.ceiling,
        "valid": e.valid,
        "note": e.validity_note,
        "epsilon": str(e.epsilon),
    }


def _emit_json(command: str, record: dict) -> None:
    """Print `record` as the `command` report, stamped with the schema version."""
    stamped = {"schema_version": 1, "command": command, **record}
    sys.stdout.write(json.dumps(stamped, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _emit_rows(fmt: str, header: list[str], rows: list[list]) -> None:
    """Print `rows` under `header` as csv, or as a column-aligned table (None prints empty)."""
    if fmt == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
        return
    cells = [header] + [[("" if v is None else str(v)) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    sys.stdout.writelines("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n" for row in cells)


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    p = Params(args.u, args.m, args.n, args.c)
    report = bounds_mod.bound_report(p, eps=args.eps)
    advice = bounds_mod.advice_report(report)
    entries = [_entry_dict(e) for e in report.entries]
    if args.format == "json":
        _emit_json("bounds", {
            "params": _params_dict(p),
            "bounds": entries,
            "advice": {
                "lower_easy_nats": advice.lower_easy,
                "lower_easy_bits": advice.lower_easy_bits,
                "lower_main_bits": advice.lower_main,
                "upper_main_bits": advice.upper_main,
                "notes": list(advice.notes),
            },
        })
        return 0
    header = ["name", "kind", "ln", "log2", "ceiling", "valid", "note"]
    rows = [
        [None if d[k] is None else f"{d[k]:.6f}" if k in ("ln", "log2") else d[k] for k in header]
        for d in entries
    ]
    rows.append(["advice.lower_easy", "lower", f"{advice.lower_easy:.6f}", "", "", True, "nats, as printed"])
    for name in ("lower_main", "upper_main"):
        bits = getattr(advice, name)  # None where the bound it reads does not apply
        cell = None if bits is None else f"{bits:.6f}"
        rows.append([f"advice.{name}", name.partition("_")[0], "", cell, "", bits is not None, "bits"])
    _emit_rows(args.format, header, rows)
    return 0


def _cmd_exact(args) -> int:
    from . import oracle as oracle_mod

    p = Params(args.u, args.m, args.n, args.c)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python >= 3.10.7
    k = min(p.n, p.u - p.n)
    # checked before counting, since the count could not be printed: C(u, k) <= (e u / k)^k
    # settles most calls in floats with a digit to spare, and the walk settles the rest
    if (
        limit
        and k
        and k * (1 + math.log(p.u) - math.log(k)) / math.log(10) >= limit - 1
        and exceeds(10**limit - 1, binom_steps(p.u, p.n))
    ):
        raise ValueError(f"C({p.u},{p.n}) has more than {limit} decimal digits, Python's int-to-str limit")
    count = oracle_mod.exact_ideal_probability(p)
    record = {
        "params": _params_dict(p),
        "m_c": count.m_c,
        "total": count.total,
        "probability": f"{count.m_c}/{count.total}",
    }
    if args.with_hc:
        record["h_c_exact"] = oracle_mod.min_family_size_exact(
            p, size_limit=args.size_limit, budget=args.budget, pool_budget=args.pool_budget
        )
        record["size_limit"] = args.size_limit
    _emit_json("exact", record)
    return 0


def _cmd_verify(args) -> int:
    from . import oracle as oracle_mod

    p = Params(args.u, args.m, args.n, args.c)
    oracle_mod.check_set_budget(p, args.budget)  # before the file is opened, so a refusal does no work
    with open(args.family, "r", encoding="utf-8") as fh:
        fam = family_from_text(fh.read(), p)
    report = oracle_mod.verify_family(fam, p, budget=args.budget)
    witness = report.uncovered_witness
    _emit_json("verify", {
        "params": _params_dict(p),
        "family_size": len(fam),
        "covered": report.covered,
        "total": p.total_sets,
        "is_ideal_family": report.is_ideal_family,
        "uncovered_witness": None if witness is None else list(witness),
    })
    return 0


def _cmd_construct(args) -> int:
    from . import construct as construct_mod

    p = Params(args.u, args.m, args.n, args.c)
    if args.method == "random":
        log = construct_mod.random_balanced_family(
            p, seed=args.seed, max_rounds=args.max_rounds, budget=args.budget
        )
    else:
        balanced = args.pool == "balanced"
        pool = list(balanced_functions(p, args.budget) if balanced else set_partitions(p.u, p.m, args.budget))
        if args.method == "greedy":
            log = construct_mod.greedy_cover(p, pool, budget=args.budget)
        else:
            log = construct_mod.yao_family(p, t=args.t, pool=pool, budget=args.budget)
        if balanced:  # one function per partition; pool_size counts all u!/prod(beta_i!) labellings
            r = p.u % p.m
            log = log._replace(pool_size=len(pool) * math.factorial(r) * math.factorial(p.m - r))
    if args.family_out:  # written first, so a failed write prints no report
        with open(args.family_out, "w", encoding="utf-8") as fh:
            fh.write(family_to_text(log.family))
    _emit_json("construct", {
        "params": _params_dict(p),
        "advice_bits": (len(log.family) - 1).bit_length(),
        **log.to_json_dict(),
    })
    return 0


def _cmd_simulate(args) -> int:
    from . import simulate as simulate_mod

    if args.kind == "max-load":
        if args.u is not None or args.c is not None:
            raise ValueError("max-load takes no --u or --c")
        est = simulate_mod.estimate_max_load(args.n, args.m, trials=args.trials, seed=args.seed)
    else:
        if args.u is None:
            raise ValueError("ideal-prob needs --u")
        p = Params(args.u, args.m, args.n, Fraction(1) if args.c is None else args.c)
        est = simulate_mod.estimate_ideal_probability(p, trials=args.trials, seed=args.seed)
    _emit_json("simulate", {"kind": args.kind, **est._asdict()})
    return 0


def _cmd_check_lemmas(args) -> int:
    from .checks import run_all_checks

    results = run_all_checks()
    all_ok = all(r.ok for r in results)
    if args.format == "json":
        checks = [{**r._asdict(), "ok": r.ok} for r in results]
        _emit_json("check-lemmas", {"checks": checks, "all_ok": all_ok})
    else:
        header = ["name", "instances", "failures", "ok", "note"]
        rows = [[r.name, r.instances, r.failures, "pass" if r.ok else "FAIL", r.note] for r in results]
        _emit_rows(args.format, header, rows)
    return 0 if all_ok else 3


_REPORT_BOUND_COLUMNS = (
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


def _cmd_report(args) -> int:
    from . import bounds as bounds_mod

    header = (
        ["u", "m", "n", "c", "alpha", "load_cap"]
        + list(_REPORT_BOUND_COLUMNS)
        + ["advice.lower_easy", "advice.lower_main", "advice.upper_main"]
    )
    rows = []
    for u in args.u:
        for m in args.m:
            for n in args.n:
                for c in args.c:
                    if n < m or u < n:
                        continue
                    p = Params(u, m, n, c)
                    rep = bounds_mod.bound_report(p, eps=args.eps, ceilings=False)
                    adv = bounds_mod.advice_report(rep)
                    row = [u, m, n, str(c), str(p.alpha), p.load_cap]
                    for name in _REPORT_BOUND_COLUMNS:
                        e = rep.entry(name)
                        row.append("" if e.ln is None else f"{e.ln:.9g}")
                    advice = (adv.lower_easy, adv.lower_main, adv.upper_main)
                    row.extend("" if v is None else f"{v:.9g}" for v in advice)
                    rows.append(row)
    _emit_rows(args.format, header, rows)
    return 0


_DISPATCH = {
    "bounds": _cmd_bounds,
    "exact": _cmd_exact,
    "verify": _cmd_verify,
    "construct": _cmd_construct,
    "simulate": _cmd_simulate,
    "check-lemmas": _cmd_check_lemmas,
    "report": _cmd_report,
}


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.subcommand](args)
    except (BudgetExceededError, ValueError, OverflowError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1


def main() -> None:
    code = run()
    gc.freeze()  # Py_FinalizeEx's full collections skip frozen objects; atexit, stdio flushes and module teardown still run
    sys.exit(code)


if __name__ == "__main__":
    main()
