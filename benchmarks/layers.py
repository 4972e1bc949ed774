"""The dframes layers as the traced run sees them: which public entry points
are wrapped, what they count, and how spans and counters become the
per-layer metrics.

A span name is "<layer>.<operation>"; the layer is the dframes module
(`cli` also covers `reports`).  Each CLI job is a root span "cli.<command>",
so the layers' self times add up to the jobs' traced time.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter

from tracer import Tracer, outermost, self_times

LAYERS = ("cli", "documents", "order", "frames", "dframe", "subdlocale",
          "density", "sweeps", "search")

AXIOMS = ("con-down", "con-join", "con-meet", "tot-up", "tot-meet", "tot-join",
          "con-tot-plus", "con-tot-minus", "con-dirjoin")

# Operations that only loop over other layers' work: their inclusive time is
# most of a job's, so they are left out when naming the dominant operation.
LOOPS = ("sweeps.full_sweep", "sweeps.sweep_dframe", "search.mine")


def _calls(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_admission(counts, args, result):
    _, report = result
    counts["subdlocale.pairs_examined"] += 1
    counts["subdlocale.pairs_admitted"] += report.ok
    for check in report.checks:
        if not check.ok:
            counts[f"subdlocale.rejected.{check.name}"] += 1


def _count_sublocales(counts, args, result):
    counts["frames.sublocales_enumerated"] += len(result)
    counts["frames.subsets_scanned"] += 2 ** (args[0].n - 1)


def _count_lattice(counts, args, result):
    n = len(args[2])  # SubDLocaleLattice(parent, members): its order table
    counts["subdlocale.members"] += n
    counts["subdlocale.table_cells"] += n * n


def _count_table(counts, args, result):
    counts["subdlocale.table_cells"] += args[0].n ** 2


ADMISSION = ("dframes.subdlocale", "build_sub_d_locale", "subdlocale.admission",
             _count_admission)

# (module, attribute, span name, counter hook)
INSTRUMENTS = (
    ("dframes.order", "Lattice.__init__", "order.lattice", _calls("order.lattices_built")),
    ("dframes.order", "Lattice._bound_table", "order.bound_table", None),
    ("dframes.documents", "load_path", "documents.load", None),
    ("dframes.frames", "enumerate_sublocales", "frames.enumerate", _count_sublocales),
    ("dframes.frames", "Sublocale.as_frame", "frames.as_frame", _calls("frames.as_frame_builds")),
    ("dframes.frames", "sublocale_label", "frames.label", None),
    ("dframes.dframe", "check_dframe", "dframe.check", _calls("dframe.check_calls")),
    ("dframes.dframe", "close_con_generators", "dframe.closure", _calls("dframe.closure_calls")),
    ("dframes.dframe", "close_tot_generators", "dframe.closure", _calls("dframe.closure_calls")),
    ADMISSION,
    ("dframes.subdlocale", "SubDLocaleLattice.__init__", "subdlocale.tables", _count_lattice),
    ("dframes.subdlocale", "SubDLocaleLattice.join_table", "subdlocale.tables", _count_table),
    ("dframes.subdlocale", "SubDLocaleLattice.meet_table", "subdlocale.tables", _count_table),
    ("dframes.subdlocale", "SubDLocaleLattice.distributivity_witness", "subdlocale.witness", None),
    ("dframes.subdlocale", "SubDLocaleLattice.modularity_witness", "subdlocale.witness", None),
    ("dframes.density", "dense_core", "density.dense_core", None),
    ("dframes.density", "classify", "density.classify", None),
    ("dframes.density", "coreflection_report", "density.coreflection", None),
    ("dframes.sweeps", "full_sweep", "sweeps.full_sweep", None),
    ("dframes.sweeps", "sweep_dframe", "sweeps.sweep_dframe", None),
    ("dframes.sweeps", "sweep_morphism", "sweeps.morphism", None),
    ("dframes.sweeps", "Sweep.check", "sweeps.check", _calls("sweeps.checks")),
    ("dframes.search", "frame_pool", "search.frame_pool", None),
    ("dframes.search", "enumerate_dframes", "search.enumerate_dframes",
     _calls("search.dframes_searched")),
    ("dframes.search", "mine", "search.mine", None),
    ("dframes.reports", "Report.render_text", "cli.render", None),
    ("dframes.reports", "Report.render_json", "cli.render", None),
)

# Counters that must read the same with spans on and off.
PAIR_COUNTS = ("subdlocale.pairs_examined", "subdlocale.pairs_admitted")


def install(tracer: Tracer, instruments=INSTRUMENTS) -> None:
    for module, attr, name, count in instruments:
        tracer.install(importlib.import_module(module), attr, name, count)


# per-layer metric name -> (unit, better)
_COUNT = ("count", "lower")
PER_LAYER = {
    "order.lattices_built": _COUNT,
    "order.lattice_s": ("s", "lower"),
    "order.bound_table_s": ("s", "lower"),
    "documents.load_s": ("s", "lower"),
    "frames.sublocales_enumerated": _COUNT,
    "frames.subsets_scanned": _COUNT,
    "frames.enumerate_s": ("s", "lower"),
    "frames.as_frame_builds": _COUNT,
    "frames.as_frame_s": ("s", "lower"),
    "frames.label_s": ("s", "lower"),
    "dframe.check_calls": _COUNT,
    "dframe.check_s": ("s", "lower"),
    "dframe.closure_calls": _COUNT,
    "dframe.closure_s": ("s", "lower"),
    "subdlocale.pairs_examined": _COUNT,
    "subdlocale.pairs_admitted": ("count", "higher"),
    "subdlocale.admit_ratio": ("ratio", "higher"),
    **{f"subdlocale.rejected.{axiom}": _COUNT for axiom in AXIOMS},
    "subdlocale.admission_s": ("s", "lower"),
    "subdlocale.members": ("count", "higher"),
    "subdlocale.table_cells": _COUNT,
    "subdlocale.tables_s": ("s", "lower"),
    "subdlocale.witness_s": ("s", "lower"),
    "density.dense_core_s": ("s", "lower"),
    "density.classify_s": ("s", "lower"),
    "density.coreflection_s": ("s", "lower"),
    "sweeps.checks": ("count", "higher"),
    "sweeps.sweep_dframe_s": ("s", "lower"),
    "sweeps.morphism_s": ("s", "lower"),
    "search.frame_pool_s": ("s", "lower"),
    "search.dframes_searched": ("count", "higher"),
    "search.enumerate_dframes_s": ("s", "lower"),
    "cli.render_s": ("s", "lower"),
    **{f"self.{layer}_s": ("s", "lower") for layer in LAYERS},
    "trace.spans": _COUNT,
    "trace.overhead_frac": ("ratio", "lower"),
}

class Analysis:
    """Self and inclusive times over one tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        self.outer = outermost(spans)

    def job_list(self, lo: int, hi: int) -> tuple[Counter, Counter, int]:
        """(inclusive ns per span name, self ns per layer, traced wall ns)
        over the spans [lo, hi) of one pass through the job list.  The root
        span of each job counts towards the wall, not the span names."""
        incl, layer_self, wall = Counter(), Counter(), 0
        for i in range(lo, hi):
            name, start, end, parent, _ = self.spans[i]
            layer_self[name.split(".")[0]] += self.selfs[i]
            if parent < 0:
                wall += end - start
            elif self.outer[i]:
                incl[name] += end - start
        return incl, layer_self, wall


def job_list_metrics(incl: Counter, layer_self: Counter, counts: Counter,
                     n_spans: int) -> dict:
    """The per-layer metrics of one traced pass, except trace.overhead_frac."""
    out = {name: counts[name] for name, (unit, _) in PER_LAYER.items()
           if unit == "count"}
    examined = counts["subdlocale.pairs_examined"]
    out["subdlocale.admit_ratio"] = (counts["subdlocale.pairs_admitted"] / examined
                                     if examined else 0.0)
    for name, (unit, _) in PER_LAYER.items():
        if unit == "s":  # "<span name>_s" is that span's inclusive time
            out[name] = incl[name[:-2]] / 1e9
    for layer in LAYERS:
        out[f"self.{layer}_s"] = layer_self[layer] / 1e9
    out["trace.spans"] = n_spans
    return out


def median_metrics(passes: list[dict]) -> dict:
    """Per metric, the median over traced passes; counts repeat exactly, so
    they come from the first pass."""
    return {name: passes[0][name] if PER_LAYER[name][0] == "count"
            else statistics.median(p[name] for p in passes)
            for name in passes[0]}


def dominant(incl: Counter) -> tuple[str, float]:
    """The operation, other than LOOPS, with the largest inclusive time."""
    ranked = [(t, name) for name, t in incl.items() if name not in LOOPS]
    t, name = max(ranked)
    return name, t
