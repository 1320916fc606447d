"""Metric names, units and the predicted interactions between them.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions; the benchmark's tests keep the two in step.  The ``moves`` /
``on`` / ``barely_on`` fields record, before any optimisation is measured,
which end-to-end metric each per-layer metric should move, on which workload,
and where it should not, so a later change can state its predicted movers and
non-movers by name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                # "lower" or "higher"
    meaning: str
    bound: float = 0.0         # end-to-end only: tolerated worsening share
    moves: str = ""            # per-layer only: end-to-end metric it should move
    on: str = ""               # ... on these workloads
    barely_on: str = ""        # ... and barely on these


END_TO_END = (
    Metric("wall_s", "s", "lower",
           "one workload operation (a point, a scan, a CLI run or a "
           "crosscheck), set-up included; median over the run", bound=0.25),
    Metric("setup_s", "s", "lower",
           "the part of wall_s before the first quadrature or evolution "
           "call; median over every set-up made in the run", bound=0.25),
    Metric("points_per_s", "1/s", "higher",
           "coincidence points completed per second of compute time "
           "(wall_s minus setup_s); median over operations", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of the workload's own process", bound=0.1),
)

_TV = ("wall_s", "golden-point (76%), readme-cli points_per_s",
       "oracle-crosscheck evolution")
_TS = ("points_per_s", "scan-tau-T (68%); wall_s of oracle-crosscheck (16%)",
       "golden-point (3%)")
_JSA = ("setup_s", "readme-cli, golden-point", "scan-tau-T")
_EV = ("wall_s", "golden-point (9%)", "scan-tau-T (4%)")
_TT = ("points_per_s", "scan-tau-T", "golden-point")
_PT = ("wall_s", "golden-point, oracle-crosscheck", "none")
_SC = ("points_per_s", "scan-tau-T, readme-cli", "golden-point (no scan)")
_OR = ("wall_s", "oracle-crosscheck only", "all others (zero)")
_CLI = ("setup_s, wall_s", "readme-cli only", "all others (zero)")
_CC = ("wall_s", "oracle-crosscheck only", "all others (zero)")
_SELF = ("wall_s", "every workload that runs the layer", "workloads that skip it")


def _layer(name, unit, better, meaning, rationale):
    moves, on, barely_on = rationale
    return Metric(name, unit, better, meaning, moves=moves, on=on,
                  barely_on=barely_on)


# All per-layer values are per operation: the median over the traced
# operations of the run.
PER_LAYER = (
    _layer("biphoton.time_value_s", "s", "lower",
           "time in BiphotonAmplitude.time_value", _TV),
    _layer("biphoton.time_value_calls", "count", "lower",
           "calls of BiphotonAmplitude.time_value", _TV),
    _layer("biphoton.time_value_points", "count", "lower",
           "two-time points interpolated by time_value", _TV),
    _layer("biphoton.time_value_share", "ratio", "lower",
           "biphoton.time_value_s / signal.point_s", _TV),
    _layer("biphoton.time_support_s", "s", "lower",
           "time in BiphotonAmplitude.time_support", _TS),
    _layer("biphoton.time_support_calls", "count", "lower",
           "calls of BiphotonAmplitude.time_support", _TS),
    _layer("biphoton.time_support_share", "ratio", "lower",
           "biphoton.time_support_s / signal.point_s", _TS),
    _layer("biphoton.default_grid_s", "s", "lower",
           "time in default_grid", _JSA),
    _layer("biphoton.build_jsa_s", "s", "lower",
           "time in build_jsa, its FFT included", _JSA),
    _layer("biphoton.to_time_domain_calls", "count", "lower",
           "calls of to_time_domain (one 2-D FFT each)", _JSA),
    _layer("biphoton.self_s", "s", "lower",
           "self time of all biphoton spans", _SELF),
    _layer("model.build_s", "s", "lower",
           "time in LiouvilleOperatorSet construction and "
           "CorrelatorExpansion.build", _EV),
    _layer("model.evaluate_s", "s", "lower",
           "time in CorrelatorExpansion.evaluate", _EV),
    _layer("model.evaluate_calls", "count", "lower",
           "calls of CorrelatorExpansion.evaluate", _EV),
    _layer("model.evaluate_points", "count", "lower",
           "correlator points evaluated", _EV),
    _layer("model.self_s", "s", "lower",
           "self time of all model spans", _SELF),
    _layer("pathways.term_table_s", "s", "lower",
           "time in term_table (rebuilt at every point)", _TT),
    _layer("pathways.term_table_calls", "count", "lower",
           "calls of term_table", _TT),
    _layer("pathways.self_s", "s", "lower",
           "self time of all pathways spans", _TT),
    _layer("signal.point_s", "s", "lower",
           "busy time of coincidence calls, summed over points", _PT),
    _layer("signal.row_self_s", "s", "lower",
           "term_value time minus its biphoton and model children", _PT),
    _layer("signal.useful_ratio", "ratio", "higher",
           "model.evaluate_points / biphoton.time_value_points", _PT),
    _layer("signal.scan_s", "s", "lower",
           "time in scan", _SC),
    _layer("signal.scan_efficiency", "ratio", "higher",
           "sum of point busy time / (scan wall time x workers); "
           "0 without a scan", _SC),
    _layer("signal.serialize_s", "s", "lower",
           "time in SignalGrid.serialize", _SC),
    _layer("signal.self_s", "s", "lower",
           "self time of all signal spans", _SELF),
    _layer("oracle.evolve_s", "s", "lower",
           "time in evolve_perturbative", _OR),
    _layer("oracle.evolve_calls", "count", "lower",
           "calls of evolve_perturbative", _OR),
    _layer("oracle.detect_s", "s", "lower",
           "time in fourth_order_coincidence", _OR),
    _layer("oracle.self_s", "s", "lower",
           "self time of all oracle spans", _OR),
    _layer("cli.load_config_s", "s", "lower",
           "time in load_config", _CLI),
    _layer("cli.self_s", "s", "lower",
           "self time of all cli spans", _CLI),
    _layer("crosscheck.self_s", "s", "lower",
           "self time of all crosscheck spans", _CC),
    _layer("trace.overhead_s", "s", "lower",
           "median traced wall_s minus median untraced wall_s in the same "
           "run", ("none", "none", "every workload")),
    _layer("trace.spans", "count", "lower",
           "spans recorded per operation", ("none", "none", "every workload")),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
