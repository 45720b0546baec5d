"""Per-layer spans and counters, recorded from outside the library.

Each layer is a set of public groupcover functions.  ``Tracer.install``
replaces every module attribute bound to one of them, so a call is traced
under the name its calling module imported it by (``covering.is_fa_finite``,
``cli.fa_scan``, ``witness.evaluate_word`` for calls inside witness.py).
A layer's self time is its span time minus the time of the spans it caused
and minus the tracer's own bookkeeping for those spans, which is timed once
at install on a wrapped no-op, so that the shares match untraced runs.
Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

# layer -> (module, function) pairs, named after groupcover's modules
LAYERS = {
    "cli.main": [("cli", "main")],
    "catalog.build": [("catalog", "group_from_spec"), ("catalog", "load_group"),
                      ("catalog", "build_catalog")],
    "fingroup.construct": [("fingroup", "build_from_permutations"),
                           ("fingroup", "build_from_matrix_generators"),
                           ("fingroup", "direct_product"), ("catalog", "cyclic_group")],
    "fingroup.validate": [("fingroup", "validate_group"),
                          ("fingroup", "build_from_cayley_table")],
    "fingroup.classes": [("fingroup", "conjugacy_classes")],
    "fingroup.lattice": [("fingroup", "normal_subgroups")],
    "fingroup.maximal": [("fingroup", "maximal_normal_subgroups")],
    "fingroup.weight": [("fingroup", "weight_bruteforce"), ("fingroup", "weight_witness")],
    "fingroup.abelianisation": [("fingroup", "abelianisation"),
                                ("fingroup", "abelian_invariants_finite")],
    "covering.fa": [("covering", "is_fa_finite")],
    "covering.nfa": [("covering", "is_nfa_finite")],
    "covering.theorems": [("covering", "verify_finite_theorems")],
    "presentation.parse": [("presentation", "parse_presentation"),
                           ("presentation", "parse_word_text")],
    "snf.smith": [("snf", "smith_normal_form")],
    "classify.verdict": [("classify", "classify_fa"), ("classify", "classify_nfa"),
                         ("classify", "rho_annihilated_checks")],
    "witness.targets": [("witness", "witness_targets")],
    "witness.surjections": [("witness", "enumerate_surjections")],
    "witness.evaluate": [("witness", "evaluate_word")],
    "witness.verify": [("witness", "verify_witness")],
    "witness.find": [("witness", "find_annihilator")],
    "witness.scan": [("witness", "fa_scan")],
}

# layer -> counter names reported beside self_s (units in run.py)
COUNTERS = {
    "cli.main": ("out_bytes",),
    "catalog.build": ("calls",),
    "fingroup.construct": ("calls", "elements"),
    "fingroup.validate": ("calls",),
    "fingroup.classes": ("classes",),
    "fingroup.lattice": ("subgroups",),
    "fingroup.maximal": ("calls", "maximal"),
    "fingroup.weight": ("calls",),
    "fingroup.abelianisation": (),
    "covering.fa": ("calls",),
    "covering.nfa": ("calls",),
    "covering.theorems": (),
    "presentation.parse": ("relators", "letters"),
    "snf.smith": ("calls", "cells", "max_bits"),
    "classify.verdict": (),
    "witness.targets": ("targets",),
    "witness.surjections": ("calls", "found", "useful_ratio"),
    "witness.evaluate": ("calls",),
    "witness.verify": ("calls",),
    "witness.find": ("calls", "hit_ratio"),
    "witness.scan": ("words", "witnessed_ratio"),
}

MAX_KEPT_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {layer: {} for layer in LAYERS}
        self.spans = []  # (layer, start, end, parent index or -1)
        self.dropped = 0
        self._stack = []  # [layer, start, child time, span index]
        self._seen = {}  # (key, id) -> object, kept alive for one op
        self._patched = []
        self.span_cost = 0.0  # seconds a child span adds to its parent

    # -- spans ---------------------------------------------------------------

    def span(self, layer, fn, *args, **kwargs):
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans) if len(self.spans) < MAX_KEPT_SPANS else -1
        if index >= 0:
            self.spans.append(None)
        else:
            self.dropped += 1
        frame = [layer, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.self_s[layer] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration + self.span_cost
            else:
                self._seen.clear()  # objects of a finished op may be freed
            if index >= 0:
                self.spans[index] = (layer, frame[1], end, parent)

    def add(self, layer, counter, amount=1):
        bucket = self.counts[layer]
        bucket[counter] = bucket.get(counter, 0) + amount

    def first_time(self, key, obj) -> bool:
        """True the first time an object is seen under this key."""
        token = (key, id(obj))
        if token in self._seen:
            return False
        self._seen[token] = obj
        return True

    # -- patching ------------------------------------------------------------

    def install(self):
        self.span_cost = measure_span_cost()
        originals = {}
        for layer, funcs in LAYERS.items():
            for module, name in funcs:
                fn = getattr(importlib.import_module(f"groupcover.{module}"), name)
                originals[id(fn)] = (layer, name, fn)
        wrappers = {key: self._wrap(*value) for key, value in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "groupcover" and not modname.startswith("groupcover."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is originals[id(value)][2]:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, layer, name, fn):
        tracer = self
        count = _COUNTING.get(name)

        if name == "maximal_normal_subgroups":
            lattice = importlib.import_module("groupcover.fingroup").normal_subgroups

            def wrapper(group, cap=None):
                def run():
                    # fill the group's lattice cache as its own span, so this
                    # span times only the maximality filter
                    try:
                        tracer.span("fingroup.lattice", _counted_lattice, tracer,
                                    lattice, group, cap)
                    except Exception:
                        pass  # the real call raises the same error below
                    return fn(group, cap)

                result = tracer.span(layer, run)
                tracer.add(layer, "calls")
                tracer.add(layer, "maximal", len(result))
                return result

        elif name == "normal_subgroups":

            def wrapper(group, cap=None):
                return tracer.span(layer, _counted_lattice, tracer, fn, group, cap)

        else:

            def wrapper(*args, **kwargs):
                result = tracer.span(layer, fn, *args, **kwargs)
                if count is not None:
                    count(tracer, layer, args, result)
                return result

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self, traced_wall_s: float, out_bytes: int, speed: float) -> dict:
        """Per-layer values for one traced pass, self times scaled by the
        pass's speed factor to reference seconds like traced_wall_s
        (trace.overhead is added by the caller, which also has the untraced
        passes)."""
        values = {}
        self.add("cli.main", "out_bytes", out_bytes)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_s[layer] * speed
            counts = self.counts[layer]
            for counter in COUNTERS[layer]:
                values[f"{layer}.{counter}"] = _counter_value(counter, counts)
        total = sum(self.self_s.values()) * speed
        values["trace.coverage"] = total / traced_wall_s if traced_wall_s else 0.0
        return values

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "dropped": self.dropped}, fh)


def measure_span_cost(rounds=5000, repeats=5) -> float:
    """Seconds that one traced call of a counted function adds to its
    parent's span beyond the call itself: wrapper, stack, span list and
    counter bookkeeping.  The median of several repeats."""
    probe = Tracer()
    wrapped = probe._wrap("witness.evaluate", "evaluate_word", _noop)

    def loop(fn):
        for _ in range(rounds):
            fn()

    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        loop(_noop)
        bare = time.perf_counter() - start
        probe.spans.clear()
        probe.self_s["cli.main"] = 0.0
        probe.span("cli.main", loop, wrapped)
        costs.append((probe.self_s["cli.main"] - bare) / rounds)
    return max(0.0, statistics.median(costs))


def _noop():
    return None


# ratio counters: (numerator, denominator) among the raw counts
RATIOS = {
    "useful_ratio": ("useful", "calls"),  # searches that found a surjection
    "hit_ratio": ("hits", "calls"),  # find_annihilator calls with a witness
    "witnessed_ratio": ("witnessed", "words"),
}


def _counter_value(counter, counts):
    if counter not in RATIOS:
        return counts.get(counter, 0)
    num, den = RATIOS[counter]
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def _counted_lattice(tracer, fn, group, cap):
    result = fn(group, cap)
    if tracer.first_time("lattice", group):
        tracer.add("fingroup.lattice", "subgroups", len(result))
    return result


def _count_calls(tracer, layer, args, result):
    tracer.add(layer, "calls")


def _count_construct(tracer, layer, args, result):
    tracer.add(layer, "calls")
    tracer.add(layer, "elements", result.order)


def _count_classes(tracer, layer, args, result):
    if tracer.first_time("classes", args[0]):
        tracer.add(layer, "classes", len(result))


def _letters(words):
    return sum(abs(e) for word in words for _, e in word)


def _count_presentation(tracer, layer, args, result):
    tracer.add(layer, "relators", len(result.relators))
    tracer.add(layer, "letters", _letters(result.relators))


def _count_word(tracer, layer, args, result):
    tracer.add(layer, "letters", _letters((result,)))


def _count_smith(tracer, layer, args, result):
    rows = args[0]
    tracer.add(layer, "calls")
    tracer.add(layer, "cells", len(rows) * (len(rows[0]) if rows else 0))
    bits = max(
        (abs(x).bit_length() for matrix in (result.u, result.v) for row in matrix for x in row),
        default=0,
    )
    counts = tracer.counts[layer]
    counts["max_bits"] = max(counts.get("max_bits", 0), bits)


def _count_targets(tracer, layer, args, result):
    tracer.add(layer, "targets", len(result))


def _count_surjections(tracer, layer, args, result):
    tracer.add(layer, "calls")
    tracer.add(layer, "found", len(result))
    tracer.add(layer, "useful", 1 if result else 0)


def _count_find(tracer, layer, args, result):
    tracer.add(layer, "calls")
    tracer.add(layer, "hits", 0 if result is None else 1)


def _count_scan(tracer, layer, args, result):
    tracer.add(layer, "words", len(result.entries))
    tracer.add(layer, "witnessed", len(result.witnessed))


_COUNTING = {
    "group_from_spec": _count_calls,
    "load_group": _count_calls,
    "build_catalog": _count_calls,
    "build_from_permutations": _count_construct,
    "build_from_matrix_generators": _count_construct,
    "direct_product": _count_construct,
    "cyclic_group": _count_construct,
    "validate_group": _count_calls,
    "build_from_cayley_table": _count_calls,
    "conjugacy_classes": _count_classes,
    "weight_witness": _count_calls,
    "is_fa_finite": _count_calls,
    "is_nfa_finite": _count_calls,
    "parse_presentation": _count_presentation,
    "parse_word_text": _count_word,
    "smith_normal_form": _count_smith,
    "witness_targets": _count_targets,
    "enumerate_surjections": _count_surjections,
    "evaluate_word": _count_calls,
    "verify_witness": _count_calls,
    "find_annihilator": _count_find,
    "fa_scan": _count_scan,
}
