"""Command-line entry point: bounds, exact, verify, construct, simulate,
check-lemmas, report.

Exact rationals serialize as "numerator/denominator" strings, never floats.
IDEALHASH_<FLAG> (e.g. IDEALHASH_BUDGET=500000) sets the default of --c,
--eps, --t, --format, --out, --budget, --size-limit, --pool-budget, --seed,
--max-rounds, --pool, --trials and --workers.  Exit codes: 0 success, 1
budget or domain error, 2 usage error, 3 lemma-check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import construct as construct_mod
from . import oracle as oracle_mod
from . import simulate as simulate_mod
from .checks import run_all_checks
from .errors import BudgetExceededError, PoolExhaustedError
from .hashspace import (
    DEFAULT_ENUM_BUDGET,
    Params,
    all_functions,
    balanced_functions,
    family_from_text,
    family_to_text,
    partition_classes,
)

SCHEMA_VERSION = 1
ENV_PREFIX = "IDEALHASH_"


def _env(name: str, fallback):
    """A flag default: the IDEALHASH_<NAME> string when set, else `fallback`.

    argparse runs a flag's `type` over a string default, so a malformed
    override is a usage error (exit 2), reported like a malformed flag.
    """
    raw = os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))
    return raw if raw is not None else fallback


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _one_of(options: tuple[str, ...]):
    """A flag type admitting only `options`: argparse checks `choices` against
    given flags but not against string defaults such as IDEALHASH_* overrides."""

    def parse(text: str) -> str:
        if text not in options:
            raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {', '.join(options)})")
        return text

    return parse


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(tok) for tok in text.split(",") if tok.strip()]


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--u", type=int, required=True, help="universe size")
    sp.add_argument("--m", type=int, required=True, help="table size")
    sp.add_argument("--n", type=int, required=True, help="key-set size")
    sp.add_argument("--c", type=_fraction, default=_env("c", "1"), help="ideality factor (rational, e.g. 3/2 or 1.5)")


def _add_output_flags(sp: argparse.ArgumentParser, formats: tuple[str, ...] = (), budget: bool = False) -> None:
    """--out; --format over `formats` (the first is the default) if any; --budget if asked."""
    if formats:
        sp.add_argument("--format", choices=formats, type=_one_of(formats), default=_env("format", formats[0]))
    sp.add_argument("--out", type=str, default=_env("out", None), help="write the report here instead of stdout")
    if budget:
        sp.add_argument("--budget", type=int, default=_env("budget", DEFAULT_ENUM_BUDGET), help="enumeration budget on C(u,n), and on m**u for all-function pools")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="idealhash", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("bounds", help="evaluate every named bound and the advice report")
    _add_param_flags(sp)
    _add_output_flags(sp, ("json", "csv", "table"))
    sp.add_argument("--eps", type=_fraction, default=_env("eps", "0"))
    sp.add_argument("--t", type=float, default=_env("t", 2.0))

    sp = sub.add_parser("exact", help="exact ideality count and probability")
    _add_param_flags(sp)
    _add_output_flags(sp, budget=True)
    sp.add_argument("--with-hc", action="store_true", help="also search the exact minimal family size")
    sp.add_argument("--size-limit", type=int, default=_env("size_limit", 8))
    sp.add_argument("--pool-budget", type=int, default=_env("pool_budget", oracle_mod.DEFAULT_POOL_BUDGET))

    sp = sub.add_parser("verify", help="check a family file against every key set")
    _add_param_flags(sp)
    _add_output_flags(sp, budget=True)
    sp.add_argument("--family", type=str, required=True, help="file with one function per line")

    sp = sub.add_parser("construct", help="build a verified family")
    _add_param_flags(sp)
    _add_output_flags(sp, budget=True)
    sp.add_argument("--method", choices=("random", "greedy", "yao"), required=True)
    sp.add_argument("--seed", type=int, default=_env("seed", 0))
    sp.add_argument("--max-rounds", type=int, default=_env("max_rounds", 64))
    sp.add_argument("--t", type=float, default=_env("t", 2.0))
    sp.add_argument("--load-target", type=int, default=None)
    pools = ("balanced", "all")
    sp.add_argument("--pool", choices=pools, type=_one_of(pools), default=_env("pool", "balanced"))
    sp.add_argument("--family-out", type=str, default=None, help="also write the family in text form")

    sp = sub.add_parser("simulate", help="Monte Carlo estimates")
    sp.add_argument("--kind", choices=("max-load", "ideal-prob"), required=True)
    sp.add_argument("--u", type=int, default=None)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", type=_fraction, default=_env("c", "1"))
    sp.add_argument("--trials", type=int, default=_env("trials", 10000))
    sp.add_argument("--seed", type=int, default=_env("seed", 0))
    sp.add_argument("--workers", type=int, default=_env("workers", 1), help="RNG streams to split the trials across (run serially)")
    _add_output_flags(sp)

    sp = sub.add_parser("check-lemmas", help="run the exact inequality battery")
    _add_output_flags(sp, ("json", "csv", "table"))

    sp = sub.add_parser("report", help="sweep a parameter grid into a plot-ready table")
    sp.add_argument("--u", type=_int_list, required=True, help="comma-separated list")
    sp.add_argument("--m", type=_int_list, required=True)
    sp.add_argument("--n", type=_int_list, required=True)
    sp.add_argument("--c", type=_fraction_list, default=_env("c", "1"))
    sp.add_argument("--eps", type=_fraction, default=_env("eps", "0"))
    sp.add_argument("--t", type=float, default=_env("t", 2.0))
    _add_output_flags(sp, ("csv", "table"))
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


def _entry_dict(e: bounds_mod.BoundEntry) -> dict:
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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out_path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _rows_to_table(header: list[str], rows: list[list]) -> str:
    cells = [header] + [[("" if v is None else str(v)) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = [
        "  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip()
        for row in cells
    ]
    return "\n".join(lines) + "\n"


def _cmd_bounds(args) -> int:
    p = Params(args.u, args.m, args.n, args.c)
    report = bounds_mod.bound_report(p, eps=args.eps, t=args.t)
    advice = bounds_mod.advice_report(report)
    if args.format == "json":
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "bounds",
                "params": _params_dict(p),
                "bounds": [_entry_dict(e) for e in report.entries],
                "advice": {
                    "lower_easy_nats": advice.lower_easy,
                    "lower_easy_bits": advice.lower_easy_bits,
                    "lower_main_bits": advice.lower_main,
                    "upper_main_bits": advice.upper_main,
                    "upper_yao_bits": advice.upper_yao,
                    "notes": list(advice.notes),
                },
            },
            args.out,
        )
    else:
        header = ["name", "kind", "ln", "log2", "ceiling", "valid", "note"]
        rows = [
            [
                e.name,
                e.kind,
                None if e.ln is None else f"{e.ln:.6f}",
                None if e.ln is None else f"{e.ln / math.log(2.0):.6f}",
                e.ceiling,
                e.valid,
                e.validity_note,
            ]
            for e in report.entries
        ]
        rows.append(["advice.lower_easy", "lower", f"{advice.lower_easy:.6f}", "", "", True, "nats, as printed"])
        rows.append(["advice.lower_main", "lower", "", f"{advice.lower_main:.6f}", "", True, "bits"])
        rows.append(["advice.upper_main", "upper", "", f"{advice.upper_main:.6f}", "", True, "bits"])
        rows.append(["advice.upper_yao", "upper", "", f"{advice.upper_yao:.6f}", "", True, "bits"])
        render = _rows_to_csv if args.format == "csv" else _rows_to_table
        _emit(render(header, rows), args.out)
    return 0


def _cmd_exact(args) -> int:
    p = Params(args.u, args.m, args.n, args.c)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python >= 3.10.7
    if limit and p.total_sets >= 10**limit:  # checked before counting: the count could not be printed
        raise ValueError(f"C({p.u},{p.n}) has more than {limit} decimal digits, Python's int-to-str limit")
    count = oracle_mod.exact_ideal_probability(p)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "exact",
        "params": _params_dict(p),
        "m_c": count.m_c,
        "total": count.total,
        "probability": f"{count.m_c}/{count.total}",
    }
    if args.with_hc:
        payload["h_c_exact"] = oracle_mod.min_family_size_exact(
            p, size_limit=args.size_limit, budget=args.budget, pool_budget=args.pool_budget
        )
        payload["size_limit"] = args.size_limit
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    p = Params(args.u, args.m, args.n, args.c)
    with open(args.family, "r", encoding="utf-8") as fh:
        fam = family_from_text(fh.read(), p.m)
    report = oracle_mod.verify_family(fam, p, budget=args.budget)
    _emit_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "params": _params_dict(p),
            "family_size": fam.size,
            "covered": report.covered,
            "total": p.total_sets,
            "is_ideal_family": report.is_ideal_family,
            "uncovered_witness": None
            if report.uncovered_witness is None
            else list(report.uncovered_witness.keys),
        },
        args.out,
    )
    return 0


def _cmd_construct(args) -> int:
    p = Params(args.u, args.m, args.n, args.c)
    if args.method == "random":
        log = construct_mod.random_balanced_family(
            p, seed=args.seed, max_rounds=args.max_rounds, budget=args.budget
        )
    else:
        if args.pool == "balanced":
            pool = list(balanced_functions(p))
        else:
            pool = partition_classes(all_functions(p.u, p.m, budget=args.budget))
        if args.method == "greedy":
            log = construct_mod.greedy_cover(p, pool, budget=args.budget)
        else:
            load_target = args.load_target
            if load_target is None:
                load_target = max(-(-p.n // p.m), p.load_cap)
            log = construct_mod.yao_family(
                p, t=args.t, pool=pool, load_target=load_target, budget=args.budget
            )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "construct",
        "params": _params_dict(p),
        "advice_bits": (log.family.size - 1).bit_length(),
        **log.to_json_dict(),
    }
    _emit_json(payload, args.out)
    if args.family_out:
        with open(args.family_out, "w", encoding="utf-8") as fh:
            fh.write(family_to_text(log.family))
    return 0


def _cmd_simulate(args) -> int:
    if args.kind == "max-load":
        est = simulate_mod.estimate_max_load(
            args.n, args.m, trials=args.trials, seed=args.seed, workers=args.workers
        )
    else:
        if args.u is None:
            raise ValueError("ideal-prob needs --u")
        p = Params(args.u, args.m, args.n, args.c)
        est = simulate_mod.estimate_ideal_probability(
            p, trials=args.trials, seed=args.seed, workers=args.workers
        )
    _emit_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "kind": args.kind,
            "mean": est.mean,
            "ci95_halfwidth": est.ci95_halfwidth,
            "trials": est.trials,
            "seed": est.seed,
            "workers": est.workers,
            "method": est.method,
        },
        args.out,
    )
    return 0


def _cmd_check_lemmas(args) -> int:
    results = run_all_checks()
    if args.format == "json":
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "check-lemmas",
                "checks": [
                    {
                        "name": r.name,
                        "instances": r.instances,
                        "failures": r.failures,
                        "ok": r.ok,
                        "note": r.note,
                    }
                    for r in results
                ],
                "all_ok": all(r.ok for r in results),
            },
            args.out,
        )
    else:
        header = ["name", "instances", "failures", "ok", "note"]
        rows = [[r.name, r.instances, r.failures, "pass" if r.ok else "FAIL", r.note] for r in results]
        render = _rows_to_csv if args.format == "csv" else _rows_to_table
        _emit(render(header, rows), args.out)
    return 0 if all(r.ok for r in results) else 3


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
    header = (
        ["u", "m", "n", "c", "alpha", "load_cap"]
        + list(_REPORT_BOUND_COLUMNS)
        + ["advice.lower_easy", "advice.lower_main", "advice.upper_main", "advice.upper_yao"]
    )
    rows = []
    for u in args.u:
        for m in args.m:
            for n in args.n:
                for c in args.c:
                    if n < m or u < n:
                        continue
                    p = Params(u, m, n, c)
                    rep = bounds_mod.bound_report(p, eps=args.eps, t=args.t)
                    adv = bounds_mod.advice_report(rep)
                    row = [u, m, n, str(c), str(p.alpha), p.load_cap]
                    for name in _REPORT_BOUND_COLUMNS:
                        e = rep.entry(name)
                        row.append("" if e.ln is None else f"{e.ln:.9g}")
                    row.extend(
                        [
                            f"{adv.lower_easy:.9g}",
                            f"{adv.lower_main:.9g}",
                            f"{adv.upper_main:.9g}",
                            f"{adv.upper_yao:.9g}",
                        ]
                    )
                    rows.append(row)
    render = _rows_to_table if args.format == "table" else _rows_to_csv
    _emit(render(header, rows), args.out)
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
    except (
        BudgetExceededError,
        PoolExhaustedError,
        ValueError,
        OSError,
    ) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
