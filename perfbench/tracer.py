"""Spans around calls into minklab's public functions, installed from outside.

The benchmark wraps each traced function where minklab's own modules refer
to it, so calls between layers (a completion calling complement, a suite
calling kinematic_decomposition) are recorded too, without any change to
the program.  Aggregates per span name are exact; individual spans are kept
in memory up to a cap and written out when the worker ends.  `remove()`
puts every original back, so a worker can alternate traced and untraced
passes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from functools import wraps

_perf = time.perf_counter


def _complement_tag(args, kwargs):
    region = args[0]
    set_cells = int(region.mask.sum())
    grid_cells = region.mask.size
    density = "sparse" if set_cells * 200 <= grid_cells else "dense"
    return f"{region.grid.dim}d.{density}", grid_cells * set_cells


def _len_arg(index):
    def tag(args, kwargs):
        return None, len(args[index])
    return tag


def _matrix_dim(args, kwargs):
    return str(len(args[0])), 1


_FIELD_KIND = {"boost-killing": "boost", "rotation-killing": "rotation",
               "worldline-induced": "herglotz"}


def _field_kind(args, kwargs):
    return _FIELD_KIND.get(args[0].tag, args[0].tag), 1


# (module, attribute, span name, tagger); an attribute "Class.member" is
# wrapped on the class.  A target the program does not have is skipped.
TARGETS = [
    ("minklab.lattice.engine", "complement", "engine.complement", _complement_tag),
    ("minklab.lattice.engine", "completion", "engine.completion", None),
    ("minklab.lattice.engine", "join", "engine.join", None),
    ("minklab.lattice.engine", "de_morgan_check", "engine.de_morgan_check", _len_arg(0)),
    ("minklab.lattice.grid", "IntegerGrid.relation_matrix", "grid.relation_matrix", None),
    ("minklab.lattice.grid", "IntegerGrid.size", "grid.size", None),
    ("minklab.lattice.grid", "Region.__init__", "grid.region_init", None),
    ("minklab.lattice.laws", "fig2_counterexample", "laws.fig2_counterexample", None),
    ("minklab.lattice.laws", "covering_counterexample", "laws.covering_counterexample", None),
    ("minklab.lattice.laws", "modularity_counterexample", "laws.modularity_counterexample", None),
    ("minklab.lattice.laws", "distributivity_counterexample", "laws.distributivity_counterexample", None),
    ("minklab.lattice.laws", "lattice_property_suite", "laws.lattice_property_suite", None),
    ("minklab.lattice.io", "region_to_json", "io.region_to_json", None),
    ("minklab.lattice.io", "region_from_json", "io.region_from_json", None),
    ("minklab.lattice.io", "region_to_pbm", "io.region_to_pbm", None),
    ("minklab.isometry", "cartan_dieudonne", "isometry.cartan_dieudonne", _matrix_dim),
    ("minklab.isometry", "conformal_factor", "isometry.conformal_factor", None),
    ("minklab.kinematics", "compose_velocities", "kinematics.compose_velocities", None),
    ("minklab.kinematics", "boost_3d", "kinematics.boost_3d", None),
    ("minklab.projective", "fl_boost_apply", "projective.fl_boost_apply", None),
    ("minklab.projective", "conjugation_check", "projective.conjugation_check", None),
    ("minklab.simultaneity", "mutual_simultaneity", "simultaneity.mutual_simultaneity", None),
    ("minklab.simultaneity", "radar_simultaneous_event", "simultaneity.radar_simultaneous_event", None),
    ("minklab.core", "classify", "core.classify", None),
    ("minklab.core", "inner", "core.inner", None),
    ("minklab.rigid.decomp", "kinematic_decomposition", "rigid.kinematic_decomposition", _field_kind),
    ("minklab.rigid.rotation", "projected_curvature_check", "rigid.projected_curvature_check", _len_arg(2)),
    ("minklab.rigid.rotation", "rotation_killing_checks", "rigid.rotation_killing_checks", _len_arg(2)),
]


class Tracer:
    """Span recorder.  `stats[key]` is [calls, seconds, self seconds, weight]
    for each span name and for each "name#tag"."""

    def __init__(self, span_cap: int = 20000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}
        self.stack: list[list] = []
        self.pass_id = -1
        self._patches: list[tuple] = []

    def reset(self) -> dict:
        """Return the aggregates so far and start new ones."""
        done, self.stats = self.stats, {}
        return done

    def wrap(self, name, fn, tagger):
        stack, spans, cap = self.stack, self.spans, self.span_cap
        tracer = self

        def label(args, kwargs):
            try:
                return tagger(args, kwargs)
            except (IndexError, AttributeError, TypeError):
                return None, 1  # called in a form the tagger does not know

        @wraps(fn)
        def traced(*args, **kwargs):
            tag, weight = label(args, kwargs) if tagger else (None, 1)
            frame = [0.0, -1]
            if len(spans) < cap:
                frame[1] = len(spans)
                spans.append(None)  # filled when the span ends
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                if frame[1] >= 0:
                    spans[frame[1]] = (tracer.pass_id, name, tag, start, end, parent)
                tracer._add(name, dur, dur - frame[0], weight)
                if tag is not None:
                    tracer._add(f"{name}#{tag}", dur, dur - frame[0], weight)

        return traced

    def _add(self, key, dur, self_dur, weight):
        s = self.stats.get(key)
        if s is None:
            self.stats[key] = [1, dur, self_dur, weight]
        else:
            s[0] += 1
            s[1] += dur
            s[2] += self_dur
            s[3] += weight

    # -- installation ---------------------------------------------------
    def prepare(self, suites: bool = False) -> None:
        """Resolve every target and build the list of (owner, key, original,
        wrapper) replacements; `install`/`remove` then only swap them."""
        owners = [m for n, m in list(sys.modules.items())
                  if n.startswith("minklab") and not n.rsplit(".", 1)[-1].startswith("_")]
        patches = []
        for modname, attr, span, tagger in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ModuleNotFoundError:
                continue
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls).get(member)
                if original is None:
                    continue
                if isinstance(original, property):
                    wrapper = property(self.wrap(span, original.fget, tagger), doc=original.__doc__)
                else:
                    wrapper = self.wrap(span, original, tagger)
                patches.append((cls, member, original, wrapper, "class"))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span, original, tagger)
            for owner in owners:
                for key, value in vars(owner).items():
                    if value is original:
                        patches.append((owner, key, original, wrapper, "module"))
        if suites:
            table = importlib.import_module("minklab.suites").SUITES
            for key, fn in table.items():
                patches.append((table, key, fn, self.wrap(f"suites.{key}", fn, None), "dict"))
        self._patches = patches

    def _swap(self, install: bool) -> None:
        for owner, key, original, wrapper, kind in self._patches:
            value = wrapper if install else original
            if kind == "dict":
                owner[key] = value
            else:
                setattr(owner, key, value)

    def install(self) -> None:
        self._swap(True)

    def remove(self) -> None:
        self._swap(False)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                pid, name, tag, start, end, parent = span
                fh.write(json.dumps({"id": i, "pass": pid, "name": name, "tag": tag,
                                     "start": start, "end": end, "parent": parent}) + "\n")
