"""Per-layer metrics from one traced pass: observers and the metric table.

Each metric notes the end-to-end figure it should move, on which workload
(see README.md in this directory).  Functions a workload never calls read 0.
"""

from __future__ import annotations

import importlib
import inspect
import math

from spans import LAYERS, Tracer
from workloads import GROUPS

CHECK_NAMES = (
    "check_poissonization_identity",
    "check_conditioned_indicator",
    "check_negdep_hypergeometric",
    "check_negdep_binomial",
    "check_replacement_direction",
    "check_tmax_sandwich",
    "check_tail_lower_bound",
    "check_balance_extremality",
    "check_composition_crude_lower",
    "check_min_product_factorials",
    "check_upper_base_constant",
)
IDEAL_PROB_CALLS = ("u1000000_n256", "u4096_n64")

# name -> unit, in the order printed
PER_LAYER: dict[str, str] = {
    "cli.run.self_s": "s",
    "cli.process_overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
    **{f"{g}_s": "s" for g in GROUPS},
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    **{f"layer.{layer}.self_frac": "ratio" for layer in LAYERS},
    "oracle.cover_mask.calls": "count",
    "oracle.cover_mask.self_s": "s",
    "oracle.cover_mask.set_tests_per_s": "1/s",
    "construct._exceed_mask.calls": "count",
    "construct._exceed_mask.self_s": "s",
    "construct._exceed_mask.set_tests_per_s": "1/s",
    "oracle.verify_family.calls": "count",
    "oracle.verify_family.self_s": "s",
    "oracle.verify_family.sets_per_s": "1/s",
    "oracle.min_family_size_exact.self_s": "s",
    "oracle.count_ideal_sets.calls": "count",
    "oracle.count_ideal_sets.self_s": "s",
    "oracle.count_ideal_sets.max_coeff_bits": "bits",
    "oracle.budget_use_frac": "ratio",
    "construct.greedy_cover.self_s": "s",
    "construct.greedy_cover.rounds": "count",
    "construct.greedy_cover.pool_size": "count",
    "construct.yao_family.self_s": "s",
    "construct.yao_family.rounds": "count",
    "construct.random_balanced_family.self_s": "s",
    "construct.random_balanced_family.rounds": "count",
    "hashspace.balanced_functions.count": "count",
    "hashspace.balanced_functions.self_s": "s",
    "hashspace.balanced_functions.distinct_frac": "ratio",
    "hashspace.all_functions.count": "count",
    "hashspace.all_functions.self_s": "s",
    "hashspace.family_to_text.self_s": "s",
    "hashspace.family_from_text.self_s": "s",
    "distributions.p_tmax_le.calls": "count",
    "distributions.p_tmax_le.self_s": "s",
    "distributions.conditioned_poisson_pmf.calls": "count",
    "distributions.conditioned_poisson_pmf.self_s": "s",
    **{f"checks.{name}.self_s": "s" for name in CHECK_NAMES},
    "bounds.bound_report.calls": "count",
    "bounds.bound_report.self_s": "s",
    "bounds.advice_report.self_s": "s",
    "bounds.comparison_bounds.self_s": "s",
    "simulate.estimate_ideal_probability.self_s": "s",
    **{f"simulate.estimate_ideal_probability.{c}.trials_per_s": "1/s" for c in IDEAL_PROB_CALLS},
    "simulate.estimate_max_load.self_s": "s",
    "simulate.estimate_max_load.throws_per_s": "1/s",
    "combinatorics.binom.calls": "count",
}

COVERAGE_SPANS = ("oracle.cover_mask", "construct._exceed_mask", "oracle.verify_family")
BUDGETED_SPANS = (
    "oracle.verify_family",
    "oracle.min_family_size_exact",
    "construct.greedy_cover",
    "construct.yao_family",
    "construct.random_balanced_family",
)


def _bound(fn_name: str, args, kwargs) -> dict:
    layer, attr = fn_name.split(".")
    fn = getattr(importlib.import_module(f"idealhash.{layer}"), attr)
    fn = getattr(fn, "__wrapped__", fn)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _sets(p) -> int:
    return math.comb(p.u, p.n)


def _observe_budget(name: str):
    def observe(st, args, kwargs, result, own):
        a = _bound(name, args, kwargs)
        st.extra["budget_use"] = max(st.extra["budget_use"], _sets(a["p"]) / a["budget"])
        if name == "oracle.verify_family":
            st.extra["sets"] += _sets(a["p"])
        elif name != "oracle.min_family_size_exact":
            st.extra["rounds"] += result.rounds
            st.extra["pool_size"] += result.pool_size or 0

    return observe


def _observe_set_tests(st, args, kwargs, result, own):
    st.extra["set_tests"] += _sets(args[1] if len(args) > 1 else kwargs["p"])


def _observe_count(st, args, kwargs, result, own):
    st.extra["max_coeff_bits"] = max(st.extra["max_coeff_bits"], result.bit_length())


def _observe_keep(st, args, kwargs, item, own):
    st.kept.append((args, item))  # one args tuple per generator call, kept alive so ids stay unique


def _observe_ideal_prob(st, args, kwargs, result, own):
    p = args[0] if args else kwargs["p"]
    st.extra[f"u{p.u}_n{p.n}.trials_per_s"] = result.trials / own


def _observe_max_load(st, args, kwargs, result, own):
    st.extra["throws"] += result.trials * (args[0] if args else kwargs["n"])


def make_tracer() -> Tracer:
    observers = {name: _observe_budget(name) for name in BUDGETED_SPANS}
    observers.update(
        {
            "oracle.cover_mask": _observe_set_tests,
            "construct._exceed_mask": _observe_set_tests,
            "oracle.count_ideal_sets": _observe_count,
            "hashspace.balanced_functions": _observe_keep,
            "simulate.estimate_ideal_probability": _observe_ideal_prob,
            "simulate.estimate_max_load": _observe_max_load,
        }
    )
    return Tracer(observers)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span-derived part of PER_LAYER from one traced pass."""
    st = tracer.stats
    root_s = tracer.root_s
    out: dict[str, float] = {"cli.run.self_s": st["cli.run"].self_s}
    for layer in LAYERS:
        own = sum(s.self_s for name, s in st.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_s"] = own
        out[f"layer.{layer}.self_frac"] = own / root_s if root_s else 0.0
    for name in ("oracle.cover_mask", "construct._exceed_mask"):
        out[f"{name}.calls"] = st[name].calls
        out[f"{name}.self_s"] = st[name].self_s
        out[f"{name}.set_tests_per_s"] = _rate(st[name].extra["set_tests"], st[name].self_s)
    vf = st["oracle.verify_family"]
    out.update(
        {
            "oracle.verify_family.calls": vf.calls,
            "oracle.verify_family.self_s": vf.self_s,
            "oracle.verify_family.sets_per_s": _rate(vf.extra["sets"], vf.self_s),
            "oracle.min_family_size_exact.self_s": st["oracle.min_family_size_exact"].self_s,
            "oracle.count_ideal_sets.calls": st["oracle.count_ideal_sets"].calls,
            "oracle.count_ideal_sets.self_s": st["oracle.count_ideal_sets"].self_s,
            "oracle.count_ideal_sets.max_coeff_bits": st["oracle.count_ideal_sets"].extra["max_coeff_bits"],
            "oracle.budget_use_frac": max(st[name].extra["budget_use"] for name in BUDGETED_SPANS),
        }
    )
    for name in ("construct.greedy_cover", "construct.yao_family", "construct.random_balanced_family"):
        out[f"{name}.self_s"] = st[name].self_s
        out[f"{name}.rounds"] = st[name].extra["rounds"]
    out["construct.greedy_cover.pool_size"] = st["construct.greedy_cover"].extra["pool_size"]

    bf = st["hashspace.balanced_functions"]
    runs: dict[int, set] = {}
    for args, h in bf.kept:
        runs.setdefault(id(args), set()).add(h.partition_signature())
    out["hashspace.balanced_functions.count"] = bf.items
    out["hashspace.balanced_functions.self_s"] = bf.self_s
    out["hashspace.balanced_functions.distinct_frac"] = (
        sum(len(sigs) for sigs in runs.values()) / bf.items if bf.items else 0.0
    )
    out["hashspace.all_functions.count"] = st["hashspace.all_functions"].items
    for name in ("hashspace.all_functions", "hashspace.family_to_text", "hashspace.family_from_text",
                 "bounds.advice_report", "bounds.comparison_bounds",
                 "simulate.estimate_ideal_probability", "simulate.estimate_max_load"):
        out[f"{name}.self_s"] = st[name].self_s
    for name in ("distributions.p_tmax_le", "distributions.conditioned_poisson_pmf", "bounds.bound_report"):
        out[f"{name}.calls"] = st[name].calls
        out[f"{name}.self_s"] = st[name].self_s
    for name in CHECK_NAMES:
        out[f"checks.{name}.self_s"] = st[f"checks.{name}"].self_s
    ip = st["simulate.estimate_ideal_probability"]
    for c in IDEAL_PROB_CALLS:
        out[f"simulate.estimate_ideal_probability.{c}.trials_per_s"] = ip.extra[f"{c}.trials_per_s"]
    ml = st["simulate.estimate_max_load"]
    out["simulate.estimate_max_load.throws_per_s"] = _rate(ml.extra["throws"], ml.self_s)
    out["combinatorics.binom.calls"] = st["combinatorics.binom"].calls
    return out


def coverage_share(tracer: Tracer) -> float:
    own = sum(tracer.stats[n].self_s for n in COVERAGE_SPANS)
    return own / tracer.root_s if tracer.root_s else 0.0
