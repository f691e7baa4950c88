"""Timing spans around the calls into each csemigroups module.

``install`` swaps each traced function, method or property for a wrapper
wherever the package binds it (the defining module and every module that
imported it by name), so spans see the calls exactly as the CLI and the
library make them, recursion included. The package files are never changed
and ``uninstall`` restores the original objects. Small per-point helpers
(``lattice.add``, ``GapSemigroup.contains``, ...) are left alone: they run
inside every inner loop and a wrapper would cost more than they do.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

ROOT = "cli.self"

# (module, attribute path, metric stem). A target that a later version of
# the package no longer has is skipped and its metrics read 0.
TARGETS = [
    ("gapsemigroup", "from_generators", "gapsemigroup.from_generators"),
    ("gapsemigroup", "_scan_axis", "gapsemigroup.scan_axis"),
    ("membership", "_ShiftTable.level", "membership.shift_table_level"),
    ("gapsemigroup", "from_gaps", "gapsemigroup.from_gaps"),
    ("gapsemigroup", "validate_complement_closed", "gapsemigroup.validate_complement_closed"),
    ("gapsemigroup", "GapSemigroup.hilbert_basis", "gapsemigroup.hilbert_basis"),
    ("membership", "AffineSemigroup.is_member", "membership.is_member"),
    ("membership", "minimalize", "membership.minimalize"),
    ("frobenius", "pseudo_frobenius", "frobenius.pseudo_frobenius"),
    ("frobenius", "classify", "frobenius.classify"),
    ("frobenius", "omega_extra", "frobenius.omega_extra"),
    ("frobenius", "apery", "frobenius.apery"),
    ("frobenius", "pf_via_ideal", "frobenius.pf_via_ideal"),
    ("frobenius", "cardinality_identity", "frobenius.cardinality_identity"),
    ("conjectures", "wilf_report", "conjectures.wilf_report"),
    ("conjectures", "buchsbaum_report", "conjectures.buchsbaum_report"),
    ("arf", "arf_closure", "arf.arf_closure"),
    ("arf", "arf_derived", "arf.arf_derived"),
    ("arf", "is_arf", "arf.is_arf"),
    ("arf", "is_pi", "arf.is_pi"),
    ("arf", "pi_decompose", "arf.pi_decompose"),
    ("constructions", "verify_delta_pf", "constructions.verify_delta_pf"),
    ("constructions", "apery_sap_window", "constructions.apery_sap_window"),
    ("constructions", "family_saps", "constructions.family_saps"),
    ("constructions", "glue", "constructions.glue"),
    ("lattice", "lattice_intersect", "lattice.lattice_intersect"),
    ("lattice", "lattice_member", "lattice.lattice_member"),
]


def _from_gaps_sizes(rec, result):
    """Work sizes of every validated gap set: genus and the volume of the
    conductor box [0, 2c) that the Hilbert basis and PF loops walk."""
    rec.counts["gapsemigroup.genus_sum"] += result.genus
    volume = 1
    for c in result.conductor:
        volume *= 2 * c
    rec.counts["gapsemigroup.box_points"] += volume


def _closure_steps(rec, result):
    rec.counts["arf.closure_steps"] += result[1]


AFTER = {
    "gapsemigroup.from_gaps": _from_gaps_sizes,
    "arf.arf_closure": _closure_steps,
}


class Recorder:
    """Spans kept in memory: self time and calls per name, optional raw list.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of one pass add up to the pass's query time.
    """

    def __init__(self, keep_spans=False):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.stack = []  # [name, start, child seconds, span index]
        self.spans = [] if keep_spans else None

    def open(self, name):
        index = None
        if self.spans is not None:
            parent = self.stack[-1][3] if self.stack else None
            index = len(self.spans)
            self.spans.append([name, None, None, parent])
        self.stack.append([name, time.perf_counter(), 0.0, index])

    def close(self):
        end = time.perf_counter()
        name, start, child, index = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if index is not None:
            self.spans[index][1] = start
            self.spans[index][2] = end


def _wrap(fn, stem, rec):
    after = AFTER.get(stem)

    def traced(*args, **kwargs):
        rec.open(stem)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if after is not None:
            after(rec, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(rec):
    """Wrap every target; returns the list of (owner, name, original)."""
    saved = []
    package = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "csemigroups"}
    for module, path, stem in TARGETS:
        owner = package.get(f"csemigroups.{module}")
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        if owner is None or attr not in vars(owner):
            continue
        original = vars(owner)[attr]
        if isinstance(original, property):
            saved.append((owner, attr, original))
            setattr(owner, attr, property(_wrap(original.fget, stem, rec)))
            continue
        wrapped = _wrap(original, stem, rec)
        homes = [owner] if len(parts) > 1 else list(package.values())
        for home in homes:
            if vars(home).get(attr) is original:
                saved.append((home, attr, original))
                setattr(home, attr, wrapped)
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = [(f"{ROOT}_s", "s")]
    for _, _, stem in TARGETS:
        names.append((f"{stem}_s", "s"))
        if stem in CALL_COUNTS:
            names.append((f"{stem}_calls", "count"))
    names += [(name, "count") for name in COUNTERS]
    names += [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("reference.round_ms", "ms")]
    return names


CALL_COUNTS = {
    "gapsemigroup.from_generators",
    "membership.shift_table_level",
    "gapsemigroup.from_gaps",
    "gapsemigroup.hilbert_basis",
    "membership.is_member",
    "membership.minimalize",
    "lattice.lattice_member",
}
COUNTERS = ("gapsemigroup.genus_sum", "gapsemigroup.box_points", "arf.closure_steps")


def pass_metrics(rec):
    """One traced pass as {metric: value}, zero for layers it never entered."""
    out = {}
    for name, unit in metric_names():
        if name.startswith("trace."):
            continue
        if name.endswith("_calls"):
            out[name] = rec.calls.get(name[: -len("_calls")], 0)
        elif name in COUNTERS:
            out[name] = rec.counts.get(name, 0)
        else:
            out[name] = rec.self_s.get(name[: -len("_s")], 0.0)
    return out
