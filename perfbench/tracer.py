"""Per-layer spans and counters recorded from outside the program.

`Tracer.install()` replaces every public module-level function of the
traced `opengw` modules, and a few named methods, with a wrapper that
records a span (name, parent span, start, end) around the call.  Every
module-level alias of a wrapped function is rebound too, because `cli`
and `bounding_chain` import functions by name.  `Tracer.remove()` puts
every original object back and checks that it did.

Spans are kept in memory in flat arrays until the run ends; `metrics()`
reduces a range of them to the per-layer metrics the benchmark reports.
Inclusive times count only the outermost span of a name (or of a group
of names), so recursion and nesting are not counted twice.  `ring` is
not traced: its work is `Fraction` arithmetic, too fine-grained to wrap
from outside.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from array import array
from collections import Counter

MODULES = ("fileio", "cli", "selfcheck", "orientation", "linalg",
           "multidisk", "lattice", "bounding_chain", "wdvv")

METHODS = (
    ("cli", "Reporter", "flush"),
    ("lattice", "Target", "predecessors"),
    ("lattice", "Target", "degeneration_classes"),
    ("multidisk", "AtomTable", "multi_disks"),
    ("wdvv", "LinForm", "substitute"),
)

# span names that are timed together; the outermost span of the group
# counts, so a group function calling another is not counted twice
GROUPS = {
    "fileio.load_target": "fileio.load",
    "fileio.load_atoms": "fileio.load",
    "fileio.load_closed": "fileio.load",
    "fileio.load_seeds": "fileio.load",
    "bounding_chain.decorated_multidisks": "bounding_chain.branch_bijection",
    "bounding_chain.to_branches": "bounding_chain.branch_bijection",
    "bounding_chain.from_branches": "bounding_chain.branch_bijection",
    "bounding_chain.branch_decompositions": "bounding_chain.branch_bijection",
    "wdvv.wdvv1_residual": "wdvv.residual",
    "wdvv.wdvv2_residual": "wdvv.residual",
    "wdvv.wdvv1_form": "wdvv.form",
    "wdvv.wdvv2_form": "wdvv.form",
}


def _layer_group(name):
    if name in GROUPS:
        return GROUPS[name]
    if name.startswith("linalg."):
        return "linalg"
    return name


# --- counters read from arguments and results ---------------------------------


def _count_trees(tracer, bind, result, exc, parent):
    tracer.counts["multidisk.trees_decoded"] += len(result)


def _count_configurations(tracer, bind, result, exc, parent):
    tracer.counts["multidisk.configurations"] += len(result)


def _count_classes(tracer, bind, result, exc, parent):
    # the class list is cached per target: count it once per distinct
    # (target, tuple, part cap)
    args = bind().arguments
    key = (args["alpha"], args.get("max_parts"))
    if tracer.first_seen(args["self"], key):
        tracer.counts["lattice.classes_enumerated"] += len(result)


def _count_live(tracer, bind, result, exc, parent):
    args = bind().arguments
    key = ("live", args["alpha"], args.get("extra_point"))
    if tracer.first_seen(args["target"], key):
        tracer.counts["bounding_chain.classes_live"] += len(result)


def _count_instances(tracer, bind, result, exc, parent):
    if parent == "wdvv.solve_wdvv":
        tracer.counts["wdvv.relation_instances"] += len(result)


def _count_form(tracer, bind, result, exc, parent):
    if parent != "wdvv.solve_wdvv":
        return
    tracer.counts["wdvv.form_builds"] += 1
    if exc is not None and type(exc).__name__ == "NonlinearEquationError":
        tracer.counts["wdvv.nonlinear_deferrals"] += 1


def _count_solve(tracer, bind, result, exc, parent):
    tracer.counts["wdvv.solved"] += len(result.solved)
    tracer.counts["wdvv.unsolved"] += len(result.unsolved)


HOOKS = {
    "multidisk.spanning_trees": _count_trees,
    "multidisk.AtomTable.multi_disks": _count_configurations,
    "lattice.Target.degeneration_classes": _count_classes,
    "bounding_chain.boundary_class_terms": _count_live,
    "wdvv.relation_instances": _count_instances,
    "wdvv.wdvv1_form": _count_form,
    "wdvv.wdvv2_form": _count_form,
    "wdvv.solve_wdvv": _count_solve,
}
# hooks that also see calls ending in an exception; the others see results
ERROR_HOOKS = frozenset({"wdvv.wdvv1_form", "wdvv.wdvv2_form"})


# --- the tracer -------------------------------------------------------------------


class Tracer:
    """Wraps the program's layers and records spans while `recording`."""

    def __init__(self):
        self.recording = False
        self.names = []          # span name by name id
        self.groups = []         # group id by name id
        self.group_names = []
        self.patches = []        # (owner, attribute, original, wrapper)
        self._reset()

    def _reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # bit 0: outermost of its name, bit 1: of its group
        self.counts = Counter()
        self._stack = [-1]
        self._name_depth = [0] * len(self.names)
        self._group_depth = [0] * len(self.group_names)
        self._seen = weakref.WeakKeyDictionary()

    def first_seen(self, owner, key):
        seen = self._seen.setdefault(owner, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    # -- installing and removing ------------------------------------------------

    def _targets(self):
        """(name, owner, attribute, original) for everything to wrap."""
        out = []
        for short in MODULES:
            module = importlib.import_module("opengw." + short)
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                out.append(("%s.%s" % (short, attr), module, attr, obj))
        for short, cls_name, attr in METHODS:
            module = importlib.import_module("opengw." + short)
            cls = getattr(module, cls_name)
            out.append(("%s.%s.%s" % (short, cls_name, attr), cls, attr,
                        cls.__dict__[attr]))
        return out

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "opengw" or n.startswith("opengw.")]
        for name, owner, attr, original in targets:
            wrapper = self._wrap(name, original)
            self.patches.append((owner, attr, original, wrapper))
            if isinstance(owner, type):
                continue
            # rebind every module-level alias made by `from x import f`
            for module in loaded:
                for alias, obj in list(vars(module).items()):
                    if obj is original and (module, alias) != (owner, attr):
                        self.patches.append((module, alias, original, wrapper))
        for owner, attr, _original, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        self._reset()

    def remove(self):
        """Restore every patched attribute; returns the names of those that
        are not their original object again (empty on success)."""
        self.recording = False
        for owner, attr, original, _wrapper in reversed(self.patches):
            setattr(owner, attr, original)
        broken = [
            "%s.%s" % (owner.__name__, attr)
            for owner, attr, original, _wrapper in self.patches
            if vars(owner)[attr] is not original
        ]
        self.patches = []
        return broken

    def _name_id(self, name):
        group = _layer_group(name)
        if group not in self.group_names:
            self.group_names.append(group)
        self.names.append(name)
        self.groups.append(self.group_names.index(group))
        return len(self.names) - 1

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        gid = self.groups[nid]
        hook = HOOKS.get(name)
        error_hook = hook if name in ERROR_HOOKS else None
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx, parent = tracer._open(nid, gid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, nid, gid)
                if error_hook:
                    error_hook(tracer, None, None, exc, parent)
                raise
            tracer._close(idx, nid, gid)
            if hook:
                hook(tracer, lambda: signature.bind(*args, **kwargs), result,
                     None, parent)
            return result

        return wrapper

    # -- recording ----------------------------------------------------------------

    def _open(self, nid, gid):
        parent = self._stack[-1]
        idx = len(self.span_name)
        outer = (self._name_depth[nid] == 0) | (self._group_depth[gid] == 0) << 1
        self._name_depth[nid] += 1
        self._group_depth[gid] += 1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_outer.append(outer)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx, (self.names[self.span_name[parent]] if parent >= 0 else None)

    def _close(self, idx, nid, gid):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._name_depth[nid] -= 1
        self._group_depth[gid] -= 1

    def mark(self):
        """A position in the span record, for metrics over a range."""
        return len(self.span_name), Counter(self.counts)

    # -- reduction ----------------------------------------------------------------

    def profile(self, lo=None, hi=None):
        """Per span name: calls, inclusive seconds (outermost spans) and
        self seconds (minus child spans), over marks lo..hi."""
        lo_idx = lo[0] if lo else 0
        hi_idx = hi[0] if hi else len(self.span_name)
        child = {}
        names, parents = self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        for i in range(lo_idx, hi_idx):
            p = parents[i]
            if p >= lo_idx:
                child[p] = child.get(p, 0.0) + (ends[i] - starts[i])
        calls = Counter()
        calls_from_cli = Counter()
        incl = Counter()
        self_s = Counter()
        group_incl = Counter()
        cli_ids = {k for k, name in enumerate(self.names)
                   if name.startswith("cli.")}
        for i in range(lo_idx, hi_idx):
            dur = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            if parents[i] >= 0 and names[parents[i]] in cli_ids:
                calls_from_cli[nid] += 1
            self_s[nid] += dur - child.get(i, 0.0)
            if outer[i] & 1:
                incl[nid] += dur
            if outer[i] & 2:
                group_incl[self.groups[nid]] += dur
        return {
            "calls": {self.names[k]: v for k, v in calls.items()},
            "calls_from_cli": {self.names[k]: v
                               for k, v in calls_from_cli.items()},
            "incl_s": {self.names[k]: v for k, v in incl.items()},
            "self_s": {self.names[k]: v for k, v in self_s.items()},
            "group_incl_s": {self.group_names[k]: v
                             for k, v in group_incl.items()},
        }

    def metrics(self, lo=None, hi=None):
        """The per-layer metrics over marks lo..hi (whole record by default)."""
        prof = self.profile(lo, hi)
        counts = Counter(hi[1] if hi else self.counts)
        if lo:
            counts.subtract(lo[1])
        calls, incl = prof["calls"], prof["incl_s"]
        group = prof["group_incl_s"]
        cli_self = sum(v for k, v in prof["self_s"].items()
                       if k.startswith("cli.") and k != "cli.Reporter.flush")
        enumerated = counts["lattice.classes_enumerated"]
        live = counts["bounding_chain.classes_live"]
        out = {
            "fileio.load_s": group.get("fileio.load", 0.0),
            "cli.run.self_s": cli_self,
            "cli.flush_s": incl.get("cli.Reporter.flush", 0.0),
            "cli.artifact_bytes": counts["cli.artifact_bytes"],
            "selfcheck.orientation_suite_s":
                incl.get("selfcheck.orientation_suite", 0.0),
            "selfcheck.matrix_tree_suite_s":
                incl.get("selfcheck.matrix_tree_suite", 0.0),
            "selfcheck.tree_count_suite_s":
                incl.get("selfcheck.tree_count_suite", 0.0),
            "orientation.fiber_orientation_sign_calls":
                calls.get("orientation.fiber_orientation_sign", 0),
            "orientation.fiber_orientation_sign_s":
                incl.get("orientation.fiber_orientation_sign", 0.0),
            "linalg.calls": sum(v for k, v in calls.items()
                                if k.startswith("linalg.")),
            "linalg.s": group.get("linalg", 0.0),
            "multidisk.spanning_trees_s":
                incl.get("multidisk.spanning_trees", 0.0),
            "multidisk.trees_decoded": counts["multidisk.trees_decoded"],
            "multidisk.tree_weight_sum_enumerated_s":
                incl.get("multidisk.tree_weight_sum_enumerated", 0.0),
            "multidisk.tree_weight_sum_calls":
                calls.get("multidisk.tree_weight_sum", 0),
            "multidisk.tree_weight_sum_s":
                incl.get("multidisk.tree_weight_sum", 0.0),
            "multidisk.multi_disks_s":
                incl.get("multidisk.AtomTable.multi_disks", 0.0),
            "multidisk.configurations": counts["multidisk.configurations"],
            "lattice.degeneration_classes_s":
                incl.get("lattice.Target.degeneration_classes", 0.0),
            "lattice.degeneration_classes_calls":
                calls.get("lattice.Target.degeneration_classes", 0),
            "lattice.classes_enumerated": enumerated,
            "lattice.predecessors_s":
                incl.get("lattice.Target.predecessors", 0.0),
            # chains built by the front-end, as opposed to the rebuilds
            # inside invariant_via_degree when it is given no chains
            "bounding_chain.build_chains_calls":
                prof["calls_from_cli"].get("bounding_chain.build_chains", 0),
            "bounding_chain.build_chains_all_calls":
                calls.get("bounding_chain.build_chains", 0),
            "bounding_chain.build_chains_s":
                incl.get("bounding_chain.build_chains", 0.0),
            "bounding_chain.boundary_class_terms_s":
                incl.get("bounding_chain.boundary_class_terms", 0.0),
            "bounding_chain.classes_live": live,
            "bounding_chain.live_ratio": live / enumerated if enumerated else 0.0,
            "bounding_chain.direct_boundary_s":
                incl.get("bounding_chain.direct_boundary", 0.0),
            "bounding_chain.invariant_via_weights_s":
                incl.get("bounding_chain.invariant_via_weights", 0.0),
            "bounding_chain.invariant_via_degree_s":
                incl.get("bounding_chain.invariant_via_degree", 0.0),
            "bounding_chain.verify_welschinger_relation_s":
                incl.get("bounding_chain.verify_welschinger_relation", 0.0),
            "bounding_chain.branch_bijection_s":
                group.get("bounding_chain.branch_bijection", 0.0),
            "wdvv.solve_wdvv_s": incl.get("wdvv.solve_wdvv", 0.0),
            "wdvv.relation_instances": counts["wdvv.relation_instances"],
            "wdvv.form_builds": counts["wdvv.form_builds"],
            "wdvv.nonlinear_deferrals": counts["wdvv.nonlinear_deferrals"],
            "wdvv.substitute_calls": calls.get("wdvv.LinForm.substitute", 0),
            "wdvv.substitute_s": incl.get("wdvv.LinForm.substitute", 0.0),
            "wdvv.residual_s": group.get("wdvv.residual", 0.0),
            "wdvv.check_structure_s": incl.get("wdvv.check_structure", 0.0),
            "wdvv.solved": counts["wdvv.solved"],
            "wdvv.unsolved": counts["wdvv.unsolved"],
        }
        return out
