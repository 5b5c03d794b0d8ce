"""Spans and counters around the calls into each ``affhecke`` layer.

The traced run rebinds module and class attributes of the package from
here, so nothing under ``src/`` knows about tracing.  A rebinding replaces
every attribute that holds the original function, which also catches names
other modules imported with ``from .x import y`` (``canonical.invert_t``,
``quotients.x_monomial``) and aliases such as ``LaurentPoly.__rmul__``.

Two kinds of wrapper:

* a span records (name, start, end, parent span, operation id) in memory;
* a leaf, for calls made up to millions of times, adds its call count and
  its exclusive time to a per-(parent span, name) total instead.

A layer's self time is the duration of its spans minus the time covered by
their child spans and leaves, plus the exclusive time of its leaves; see
``layer_self_times``.
"""

from __future__ import annotations

import json
import sys
import time

from affhecke import (
    canonical,
    cli,
    flags,
    hecke,
    laurent,
    linalg,
    oracle,
    parsing,
    quotients,
    weyl,
)

LAYERS = (
    "weyl", "laurent", "hecke", "quotients", "canonical",
    "flags", "oracle", "linalg", "parsing", "cli",
)
SPAN, LEAF = "span", "leaf"
EXIT_CODES = (0, 1, 2, 3, 4)


def _letter_terms(tracer, args, result):
    tracer.extra["hecke.letter_terms"] += len(args[0].terms)


def _madds(tracer, args, result):
    a, b = args[0], args[1]
    tracer.extra["linalg.mat_mul.madds"] += len(a) * len(b) * (len(b[0]) if b else 0)


def _cells(tracer, args, result):
    rows = args[0]  # every caller passes a list
    tracer.extra["linalg.int_rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _context(tracer, args, result):
    tracer.contexts.append(args[0])


def _table(tracer, args, result):
    pairs = result[2]
    if id(pairs) not in tracer.tables:
        tracer.tables[id(pairs)] = pairs
        tracer.extra["flags.table_pairs"] += len(pairs)


# (span or leaf name, owner, attribute, kind, hook after a normal return)
TARGETS = (
    ("weyl.perm_new", weyl.AffinePerm, "__init__", LEAF, None),
    ("weyl.compose", weyl.AffinePerm, "compose", LEAF, None),
    ("weyl.reduced_word", weyl.AffinePerm, "reduced_word", SPAN, None),
    ("weyl.positive_reduced_word", weyl.AffinePerm, "positive_reduced_word", SPAN, None),
    ("weyl.bruhat_leq", weyl.AffinePerm, "bruhat_leq", SPAN, None),
    ("weyl.coxeter_ball", weyl, "coxeter_ball", SPAN, None),
    ("weyl.positive_elements", weyl, "positive_elements", SPAN, None),
    ("laurent.mul", laurent.LaurentPoly, "__mul__", LEAF, None),
    ("laurent.add", laurent.LaurentPoly, "__add__", LEAF, None),
    ("hecke.mul", hecke.HeckeElt, "__mul__", SPAN, None),
    ("hecke.add", hecke.HeckeElt, "__add__", LEAF, None),
    ("hecke.scale", hecke.HeckeElt, "scale", LEAF, None),
    ("hecke.right_letter", hecke.HeckeElt, "right_letter", LEAF, _letter_terms),
    ("hecke.t_basis", hecke, "t_basis", LEAF, None),
    ("hecke.invert_t", hecke, "invert_t", SPAN, None),
    ("hecke.x_element", hecke, "x_element", SPAN, None),
    ("hecke.x_element_inverse", hecke, "x_element_inverse", SPAN, None),
    ("hecke.x_monomial", hecke, "x_monomial", SPAN, None),
    ("quotients.reduce", quotients, "reduce", SPAN, None),
    ("quotients.in_ideal", quotients, "in_ideal", SPAN, None),
    ("quotients.quotient_mul", quotients, "quotient_mul", SPAN, None),
    ("canonical.basis", canonical, "canonical_basis", SPAN, None),
    ("canonical.value", canonical, "_canonical_value", SPAN, None),
    ("canonical.bar", canonical, "bar_involution", SPAN, None),
    ("canonical.positive_basis", canonical, "positive_canonical_basis", SPAN, None),
    ("canonical.quotient_basis", canonical, "quotient_canonical_basis", SPAN, None),
    ("flags.context", flags.FlagContext, "__init__", LEAF, _context),
    ("flags.memo", flags.FlagContext, "_memo", LEAF, None),
    ("flags.perm_flag", flags.FlagContext, "perm_flag", LEAF, None),
    ("flags.inter_dim", flags.FlagContext, "inter_dim", LEAF, None),
    ("flags.pair_label", flags.FlagContext, "pair_label", LEAF, None),
    ("flags.label_table", flags.FlagContext, "label_table", SPAN, _table),
    ("oracle.convolve", oracle.OrbitFunction, "convolve", SPAN, None),
    ("oracle.operator_matrix", oracle, "operator_matrix", SPAN, None),
    ("oracle.theta", oracle, "theta", SPAN, None),
    ("oracle.theta_between", oracle, "theta_between", SPAN, None),
    ("oracle.psi", oracle, "psi", SPAN, None),
    ("oracle.fiber_indicator", oracle, "fiber_indicator", SPAN, None),
    ("oracle.lift_family", oracle, "lift_family", SPAN, None),
    ("oracle.verify_hecke_iso", oracle, "verify_hecke_iso", SPAN, None),
    ("oracle.bicommutant_check", oracle, "bicommutant_check", SPAN, None),
    ("oracle.im_psi_check", oracle, "im_psi_check", SPAN, None),
    ("oracle.lift_trials", oracle, "lift_trials", SPAN, None),
    ("linalg.mat_mul", linalg, "mat_mul", SPAN, _madds),
    ("linalg.int_rank", linalg, "int_rank", SPAN, _cells),
    ("parsing.parse_element", parsing, "parse_element", SPAN, None),
    ("parsing.parse_perm", parsing, "parse_perm", SPAN, None),
    ("parsing.parse_partition", parsing, "parse_partition", SPAN, None),
    ("cli.main", cli, "main", SPAN, None),
)
# Count metrics named after what they count rather than the function.
COUNT_NAMES = {"hecke.right_letter": "hecke.letter_steps", "cli.main": "cli.requests"}
EXTRA = ("hecke.letter_terms", "linalg.mat_mul.madds", "linalg.int_rank.cells", "flags.table_pairs")
# The module-level lru_caches, read through cache_info() at the end.
CACHES = (
    ("hecke.cache.reduced_letters", hecke, "_reduced_letters"),
    ("hecke.cache.x_element", hecke, "x_element"),
    ("hecke.cache.x_element_inverse", hecke, "x_element_inverse"),
    ("hecke.cache.x_monomial", hecke, "x_monomial"),
    ("canonical.cache.canonical_value", canonical, "_canonical_value"),
    ("weyl.cache.bruhat_leq_coxeter", weyl, "_bruhat_leq_coxeter"),
    ("weyl.cache.coxeter_ball", weyl, "coxeter_ball"),
)
FLAG_LOOKUPS = ("flags.memo", "flags.perm_flag", "flags.inter_dim", "flags.pair_label")


def count_name(name: str) -> str:
    return COUNT_NAMES.get(name, name + ".calls")


def layer_self_times(spans, leaves) -> dict[str, float]:
    """Self time per layer.

    ``spans`` holds (name, start, end, parent index or -1) records;
    ``leaves`` maps (parent span index or -1, leaf name) to
    (call count, exclusive time).  A span's self time is its duration minus
    its child spans' durations and the exclusive time of the leaves directly
    under it; a leaf's exclusive time already excludes everything it called.
    """
    out = {layer: 0.0 for layer in LAYERS}
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (parent, name), (_, excl) in leaves.items():
        out[name.split(".")[0]] += excl
        if parent >= 0:
            covered[parent] += excl
    for i, (name, start, end, _) in enumerate(spans):
        out[name.split(".")[0]] += (end - start) - covered[i]
    return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Holds the spans, leaf totals and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple, list] = {}
        self.extra = {name: 0 for name in EXTRA}
        self.exits = {code: 0 for code in EXIT_CODES}
        self.contexts: list = []
        self.tables: dict = {}
        self.context_entries = 0
        self._open = [-1]  # indices of the open spans
        self._frames = [[0.0]]  # time covered by children, per open span or leaf
        self._op = [-1]
        self.missing: list[str] = []
        self._caches = [(name, getattr(mod, attr, None)) for name, mod, attr in CACHES]

    # -- operation boundaries -------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op[0] = op_id

    def end_op(self, exit_code: int | None = None) -> None:
        if exit_code in self.exits:  # any other code already fails the operation
            self.exits[exit_code] += 1
        self.context_entries += sum(len(getattr(ctx, "_cache", ())) for ctx in self.contexts)
        self.contexts.clear()
        self.tables.clear()
        self._op[0] = -1

    # -- wrappers ------------------------------------------------------------------

    def _leaf(self, name, fn, hook):
        frames, open_spans, leaves = self._frames, self._open, self.leaves
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                frames.pop()
                frames[-1][0] += dur
                key = (open_spans[-1], name)
                total = leaves.get(key)
                if total is None:
                    leaves[key] = [1, dur - frame[0]]
                else:
                    total[0] += 1
                    total[1] += dur - frame[0]
            if hook is not None:
                hook(self, args, result)
            return result

        return leaf

    def _span(self, name, fn, hook):
        frames, open_spans, spans, op = self._frames, self._open, self.spans, self._op
        clock = time.perf_counter

        def span(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_spans[-1], op[0]]
            open_spans.append(len(spans))
            spans.append(rec)
            frames.append([0.0])
            rec[1] = t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = t1 = clock()
                frames.pop()
                open_spans.pop()
                frames[-1][0] += t1 - t0
            if hook is not None:
                hook(self, args, result)
            return result

        return span

    def install(self) -> None:
        """Rebind every target in every loaded ``affhecke`` module and class."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "affhecke" or key.startswith("affhecke.")]
        for name, owner, attr, kind, hook in TARGETS:
            orig = vars(owner).get(attr)
            if orig is None:
                self.missing.append(name)
                continue
            wrap = (self._span if kind == SPAN else self._leaf)(name, orig, hook)
            homes = [owner] if isinstance(owner, type) else modules
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is orig:
                        setattr(home, key, wrap)

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace_overhead``."""
        out: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, *_ in self.spans:
            calls[name] = calls.get(name, 0) + 1
        for (_, name), (count, _) in self.leaves.items():
            calls[name] = calls.get(name, 0) + count
        for name, *_ in TARGETS:
            out[count_name(name)] = calls.get(name, 0)
        out.update(self.extra)
        for code, count in self.exits.items():
            out["cli.exit.%d" % code] = count
        records = [(n, s, e, p) for n, s, e, p, _ in self.spans]
        for layer, seconds in layer_self_times(records, self.leaves).items():
            out["%s.self_s" % layer] = seconds
        verify = basis = 0.0
        for name, start, end, parent in records:
            if name == "canonical.basis":
                basis += end - start
            elif name == "canonical.bar" and self._under(parent, "canonical.basis"):
                verify += end - start
        out["canonical.verify_s"] = verify
        out["canonical.recursion_s"] = basis - verify
        for name, fn in self._caches:
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            if info is None:
                self.missing.append(name)
                out[name + ".size"] = out[name + ".hit_ratio"] = 0
            else:
                out[name + ".size"] = info.currsize
                out[name + ".hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
        lookups = sum(calls.get(name, 0) for name in FLAG_LOOKUPS)
        out["flags.cache.context.size"] = self.context_entries
        out["flags.cache.context.hit_ratio"] = _ratio(lookups - self.context_entries, lookups)
        out["hecke.reduced_letters.hit_ratio"] = out["hecke.cache.reduced_letters.hit_ratio"]
        out["canonical.value_cache.size"] = out["canonical.cache.canonical_value.size"]
        return out

    def _under(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def dump(self, path) -> None:
        """Write the spans and leaf totals as JSON, once, at the end."""
        names = sorted({s[0] for s in self.spans} | {k[1] for k in self.leaves})
        ids = {n: i for i, n in enumerate(names)}
        data = {
            "names": names,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": [[ids[n], s, e, p, o] for n, s, e, p, o in self.spans],
            "leaf_fields": ["parent", "name", "calls", "exclusive_s"],
            "leaves": [[p, ids[n], c, x] for (p, n), (c, x) in self.leaves.items()],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
