"""Outside-in tracer for the traced benchmark pass.

The tracer wraps every public function of every ``artinflats`` module
from outside, replacing each binding of the function object (matched by
identity) in every ``artinflats.*`` module namespace.  That also catches
``from x import f`` bindings such as the ones in ``cli`` and
``subgroups``.  A few methods named in ``GROUPS`` are wrapped on their
class.  Nothing in the program changes.

Per-call work is aggregated, never stored per call, so memory stays
bounded on sweeps that make hundreds of thousands of calls:

* per function: calls and self time (the call's duration minus the
  time spent in wrapped callees);
* per metric group: calls and inclusive time, counting only the
  outermost call of the group, so a group member calling another
  member (``classify`` -> ``match_exponents``) is not counted twice;
* counters filled by result hooks (states visited, assignments
  enumerated, certificates found, ...).

A metric whose functions exist in no module (a function that moved or
was deleted) is reported as missing instead of failing the pass.
"""

from __future__ import annotations

import importlib
import pkgutil
import time

# Metric group -> functions, as "module.name" or "module.Class.method".
# A group lists every place a function may live; those that do not
# exist are skipped (girth_sweep lives in cli today and belongs to girth).
GROUPS = {
    "presentation.template_match": ("presentation.LanguageTemplate.matches",),
    "dihedral.normal_form": ("dihedral.normal_form",),
    "dihedral.algebra": ("dihedral.multiply", "dihedral.invert"),
    "dihedral.closure": ("dihedral.closure",),
    "girth.sweep": ("girth.girth_sweep", "cli.girth_sweep"),
    "girth.classify": ("girth.classify", "girth.classify_commutator", "girth.match_exponents"),
    "tiling.patch_build": ("tiling.minimal_patch", "tiling.scaled_patch", "tiling.build_patch"),
    "tiling.directions_enum": ("tiling.enumerate_consistent_directions",),
    "tiling.validate": ("tiling.validate_directions",),
    "polarisation.exact_cover": ("polarisation.enumerate_admissible",),
    "polarisation.rigidity": ("polarisation.rigidity_witnesses", "polarisation.check_rigidity"),
    "polarisation.naive": ("polarisation.naive_enumerate_admissible",),
    "prover.prove": (
        "prover.prove_conjugation",
        "prover.prove_commutator",
        "prover.prove_trivial",
        "prover.prove_equal",
    ),
    "prover.conjugation": ("prover.prove_conjugation",),
    "prover.trivial": ("prover.prove_trivial",),
    "prover.equal": ("prover.prove_equal",),
    "prover.splice": (
        "prover.conjugation_product",
        "prover.commutator_from_conjugation",
        "prover.compose_certificates",
        "prover.mirror_certificate",
        "prover.conjugated_certificate",
    ),
    "prover.replay": ("prover.replay",),
    "prover.json": ("prover.Certificate.to_json", "prover.Certificate.from_json"),
    "subgroups.verify_abelian": ("subgroups.verify_abelian",),
    "subgroups.klein": ("subgroups.klein_pair", "subgroups.klein_composite"),
    "subgroups.read_off": ("subgroups.read_off_generators",),
    "subgroups.match_family": ("subgroups.matches_family",),
    "cli.render": ("cli.render_svg",),
}


def _sweep_words(c, args, result):
    c["girth.words"] += result.total if hasattr(result, "total") else result[0]


def _closure(c, args, result):
    c["dihedral.closure_states"] += result.visited_count
    c["dihedral.closure_reached"] += bool(result.reached_target)


def _enumerated(c, args, result):
    c["tiling.assignments"] += len(result)
    c["tiling.enumerated"].update((id(d), d) for d in result)


def _validated(c, args, result):
    # Distinct enumerated assignments that validate: read_off_generators
    # validates the same assignment again, which must not count twice.
    if result.ok and id(args[1]) in c["tiling.enumerated"]:
        c["tiling.consistent"].add(id(args[1]))


def _count(key):
    def hook(c, args, result):
        c[key] += len(result)
    return hook


def _truthy(key):
    def hook(c, args, result):
        c[key] += bool(result)
    return hook


def _not_found(c, args, result):
    c["prover.not_found"] += result is None


def _replay_moves(c, args, result):
    c["prover.replay_moves"] += len(args[0].moves)


# Hooks run on the outermost call of their group that returned normally.
HOOKS = {
    "girth.sweep": _sweep_words,
    "dihedral.closure": _closure,
    "tiling.directions_enum": _enumerated,
    "tiling.validate": _validated,
    "polarisation.exact_cover": _count("polarisation.admissible"),
    "polarisation.rigidity": _truthy("polarisation.witnessed"),
    "prover.prove": _not_found,
    "prover.replay": _replay_moves,
    "subgroups.match_family": _truthy("subgroups.match_hits"),
}

# Per-layer metric -> (unit, workload whose traced pass must call it, source).
# Sources: ("calls"|"time", group), ("count", counter, group),
# ("ratio", numerator counter, denominator counter or None for the
# group's calls, group), ("self", function keys), ("layer_calls", module).
METRICS = {
    "presentation.template_match_calls": ("count", "tiling_pipeline", ("calls", "presentation.template_match")),
    "presentation.template_match_s": ("s", "tiling_pipeline", ("time", "presentation.template_match")),
    "dihedral.calls": ("count", "oracle_crosscheck", ("layer_calls", "dihedral")),
    "dihedral.normal_form_calls": ("count", "girth_sweep", ("calls", "dihedral.normal_form")),
    "dihedral.normal_form_s": ("s", "girth_sweep", ("time", "dihedral.normal_form")),
    "dihedral.algebra_calls": ("count", "oracle_crosscheck", ("calls", "dihedral.algebra")),
    "dihedral.algebra_s": ("s", "oracle_crosscheck", ("time", "dihedral.algebra")),
    "dihedral.closure_calls": ("count", "oracle_crosscheck", ("calls", "dihedral.closure")),
    "dihedral.closure_states": ("count", "oracle_crosscheck", ("count", "dihedral.closure_states", "dihedral.closure")),
    "dihedral.closure_s": ("s", "oracle_crosscheck", ("time", "dihedral.closure")),
    "dihedral.closure_target_ratio": ("ratio", "oracle_crosscheck", ("ratio", "dihedral.closure_reached", None, "dihedral.closure")),
    "girth.sweep_self_s": ("s", "girth_sweep", ("self", GROUPS["girth.sweep"])),
    "girth.words": ("count", "girth_sweep", ("count", "girth.words", "girth.sweep")),
    "girth.classify_calls": ("count", "girth_sweep", ("calls", "girth.classify")),
    "girth.classify_s": ("s", "girth_sweep", ("time", "girth.classify")),
    "tiling.patch_build_calls": ("count", "tiling_pipeline", ("calls", "tiling.patch_build")),
    "tiling.patch_build_s": ("s", "tiling_pipeline", ("time", "tiling.patch_build")),
    "tiling.directions_enum_s": ("s", "tiling_pipeline", ("time", "tiling.directions_enum")),
    "tiling.assignments": ("count", "tiling_pipeline", ("count", "tiling.assignments", "tiling.directions_enum")),
    "tiling.consistent_ratio": ("ratio", "tiling_pipeline", ("ratio", "tiling.consistent", "tiling.assignments", "tiling.validate")),
    "tiling.validate_calls": ("count", "tiling_pipeline", ("calls", "tiling.validate")),
    "tiling.validate_s": ("s", "tiling_pipeline", ("time", "tiling.validate")),
    "polarisation.exact_cover_s": ("s", "tiling_pipeline", ("time", "polarisation.exact_cover")),
    "polarisation.admissible": ("count", "tiling_pipeline", ("count", "polarisation.admissible", "polarisation.exact_cover")),
    "polarisation.rigidity_calls": ("count", "tiling_pipeline", ("calls", "polarisation.rigidity")),
    "polarisation.rigidity_s": ("s", "tiling_pipeline", ("time", "polarisation.rigidity")),
    "polarisation.witness_ratio": ("ratio", "tiling_pipeline", ("ratio", "polarisation.witnessed", None, "polarisation.rigidity")),
    "polarisation.naive_s": ("s", "tiling_pipeline", ("time", "polarisation.naive")),
    "prover.calls": ("count", "flat_certificates", ("layer_calls", "prover")),
    "prover.conjugation_calls": ("count", "flat_certificates", ("calls", "prover.conjugation")),
    "prover.conjugation_s": ("s", "flat_certificates", ("time", "prover.conjugation")),
    "prover.trivial_s": ("s", "flat_certificates", ("time", "prover.trivial")),
    "prover.equal_s": ("s", "flat_certificates", ("time", "prover.equal")),
    "prover.splice_s": ("s", "flat_certificates", ("time", "prover.splice")),
    "prover.replay_calls": ("count", "flat_certificates", ("calls", "prover.replay")),
    "prover.replay_moves": ("count", "flat_certificates", ("count", "prover.replay_moves", "prover.replay")),
    "prover.replay_s": ("s", "flat_certificates", ("time", "prover.replay")),
    "prover.json_s": ("s", "flat_certificates", ("time", "prover.json")),
    "prover.not_found_ratio": ("ratio", "flat_certificates", ("ratio", "prover.not_found", None, "prover.prove")),
    "subgroups.verify_abelian_self_s": ("s", "flat_certificates", ("self", GROUPS["subgroups.verify_abelian"])),
    "subgroups.klein_s": ("s", "flat_certificates", ("time", "subgroups.klein")),
    "subgroups.read_off_calls": ("count", "tiling_pipeline", ("calls", "subgroups.read_off")),
    "subgroups.read_off_s": ("s", "tiling_pipeline", ("time", "subgroups.read_off")),
    "subgroups.match_family_calls": ("count", "tiling_pipeline", ("calls", "subgroups.match_family")),
    "subgroups.match_family_s": ("s", "tiling_pipeline", ("time", "subgroups.match_family")),
    "subgroups.match_hit_ratio": ("ratio", "tiling_pipeline", ("ratio", "subgroups.match_hits", None, "subgroups.match_family")),
    "cli.self_s": ("s", "flat_certificates", ("self", ("cli.*",))),
    "cli.render_s": ("s", "tiling_pipeline", ("time", "cli.render")),
}

# Bypass predictions checked on every traced pass: (metric, workloads on
# which it must read 0).
PREDICTIONS = (
    ("prover.calls", ("girth_sweep", "oracle_crosscheck", "tiling_pipeline")),
    ("dihedral.closure_calls", ("girth_sweep", "flat_certificates", "tiling_pipeline")),
    ("dihedral.calls", ("flat_certificates",)),
)


class Tracer:
    """Aggregating wrappers plus op spans.  Only active between
    ``start()`` and ``stop()``, so the verdict gate that runs after the
    timed phase is not counted."""

    def __init__(self):
        self.active = False
        self.stack: list[list[float]] = []  # [start, wrapped-child time]
        self.funcs: dict[str, list] = {}  # key -> [calls, self seconds]
        self.groups: dict[str, list] = {}  # group -> [calls, seconds, depth]
        self.counters: dict = {}
        self.missing: list[str] = []
        self.spans: list[tuple] = []  # (name, start, end, parent)

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def span(self, name: str, start: float, end: float, parent: str) -> None:
        self.spans.append((name, start, end, parent))

    def install(self) -> None:
        import artinflats

        modules = {
            info.name: importlib.import_module(f"artinflats.{info.name}")
            for info in pkgutil.iter_modules(artinflats.__path__)
        }
        namespaces = [artinflats, *modules.values()]
        self.groups = {group: [0, 0.0, 0] for group in GROUPS}
        member_of: dict[str, list[str]] = {}
        for group, keys in GROUPS.items():
            for key in keys:
                member_of.setdefault(key, []).append(group)
        found: set[str] = set()
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{short}.{name}"
                found.add(key)
                wrappers[id(obj)] = self._wrap(key, obj, member_of.get(key, ()))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    setattr(ns, name, w)
        for key, groups in member_of.items():
            parts = key.split(".")
            if len(parts) != 3 or parts[0] not in modules:
                continue
            cls = getattr(modules[parts[0]], parts[1], None)
            raw = getattr(cls, "__dict__", {}).get(parts[2])
            if raw is None:
                continue
            found.add(key)
            if isinstance(raw, classmethod):
                setattr(cls, parts[2], classmethod(self._wrap(key, raw.__func__, groups)))
            else:
                setattr(cls, parts[2], self._wrap(key, raw, groups))
        for group, keys in GROUPS.items():
            if not any(k in found for k in keys):
                self.missing.append(group)
        for name in ("girth.words", "dihedral.closure_states", "dihedral.closure_reached",
                     "tiling.assignments", "polarisation.admissible", "polarisation.witnessed",
                     "prover.not_found", "prover.replay_moves", "subgroups.match_hits"):
            self.counters[name] = 0
        self.counters["tiling.enumerated"] = {}  # id -> assignment, kept alive so ids stay unique
        self.counters["tiling.consistent"] = set()

    def _wrap(self, key: str, fn, groups):
        stats = self.funcs.setdefault(key, [0, 0.0])
        group_stats = [self.groups[g] for g in groups]
        hooks = [(self.groups[g], HOOKS[g]) for g in groups if g in HOOKS]
        stack = self.stack
        counters = self.counters
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = [g for g in group_stats if g[2] == 0]
            for g in group_stats:
                g[2] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur - frame[1]
                for g in group_stats:
                    g[2] -= 1
                for g in outer:
                    g[0] += 1
                    g[1] += dur
                if returned:
                    for g, hook in hooks:
                        if g in outer:
                            hook(counters, args, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def snapshot(self) -> dict:
        """Plain-data aggregates for the parent process."""
        counters = {k: v for k, v in self.counters.items() if isinstance(v, int)}
        counters["tiling.consistent"] = len(self.counters["tiling.consistent"])
        return {
            "funcs": self.funcs,
            "groups": {g: v[:2] for g, v in self.groups.items()},
            "counters": counters,
            "missing": self.missing,
            "spans": self.spans,
        }


def _self_time(funcs: dict, keys, grouped: set) -> tuple[float, int]:
    total, calls = 0.0, 0
    for key, (n, self_s) in funcs.items():
        for want in keys:
            if key == want or (want.endswith(".*") and key.startswith(want[:-1]) and key not in grouped):
                total += self_s
                calls += n
                break
    return total, calls


def layer_metrics(snap: dict) -> tuple[dict, dict, list[str]]:
    """(metric values, call counts behind each metric, missing metrics)."""
    funcs, groups, counters = snap["funcs"], snap["groups"], snap["counters"]
    grouped = {k for keys in GROUPS.values() for k in keys}
    values, calls, missing = {}, {}, []
    for name, (_, _, source) in METRICS.items():
        kind = source[0]
        if kind == "self":
            values[name], calls[name] = _self_time(funcs, source[1], grouped)
            if not any(k.endswith(".*") or k in funcs for k in source[1]):
                missing.append(name)
            continue
        if kind == "layer_calls":
            values[name] = calls[name] = sum(
                v[0] for k, v in funcs.items() if k.startswith(source[1] + "."))
            continue
        group = source[-1]
        n, secs = groups[group]
        calls[name] = n
        if group in snap["missing"]:
            missing.append(name)
        if kind == "calls":
            values[name] = n
        elif kind == "time":
            values[name] = secs
        elif kind == "count":
            values[name] = counters[source[1]]
        else:
            den = n if source[2] is None else counters[source[2]]
            values[name] = counters[source[1]] / den if den else 0.0
    return values, calls, missing
