"""Call-site tracer for the qrf_sim layers.

The tracer wraps each public function of a layer where another layer calls
it.  ``from .x import y`` binds ``y`` into the caller's namespace, so the
wrapper replaces that binding (for example ``trajectory.average_channel`` or
``cli.summarize_frame``), never the definition.  Spans are aggregated on the
fly per (name, l, parent): a full-size ensemble makes about 10^7 calls, too
many to keep one record each.

A span's self time is its duration minus the time of the spans it encloses,
so the self times of one traced call partition its wall time by layer.

This module imports nothing from the package; ``install`` receives the
modules to patch.
"""

from __future__ import annotations

import inspect
import time
import types

LAYERS = ("spin", "kernels", "channels", "metrics", "trajectory", "cli")

# Functions called from their own module that still get a span: the
# conditional search (its trial channels are counted apart from real steps),
# the lifetime stepper (metrics imports it at call time), and the CLI stages.
INTRA_MODULE = {
    "trajectory": ("conditional_correction_step", "average_lifetime_stepper"),
    "cli": ("load_config", "write_outputs"),
}

# Channel applications that advance the frame by one step.
STEP_SPANS = ("channels.average_channel", "channels.selective_unnormalized",
              "channels.selective_channel", "channels.unitary_channel")
CONDITIONAL = "trajectory.conditional_correction_step"
HYGIENE = "channels.hygiene"


def _l_getter(fn):
    """Pick, once per wrapped function, how a call's spin size is read."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    for key, read in (("ops", lambda v: v.l_value),
                      ("rho", lambda v: (v.shape[0] - 1) / 2),
                      ("l", lambda v: getattr(v, "l", v)),
                      ("cfg", lambda v: v.get("l"))):
        if key in params:
            index = params.index(key)

            def getter(args, kwargs, index=index, key=key, read=read):
                value = args[index] if index < len(args) else kwargs.get(key)
                try:
                    return float(read(value))
                except (AttributeError, TypeError, ValueError, IndexError):
                    return None

            return getter
    return None


def _array_bytes(args, result) -> int:
    return sum(getattr(v, "nbytes", 0) for v in args) + getattr(result, "nbytes", 0)


class Tracer:
    """Aggregating span recorder with call-site patching.

    ``stats`` maps (name, l, parent) to [calls, total_s, self_s, bytes];
    ``counters`` holds the outcome counts the hooks record.
    """

    def __init__(self):
        self.stats: dict = {}
        self.counters = {"hygiene_corrections": 0, "conditional_applied": 0}
        self._stack: list = []
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name: str):
        """Return fn wrapped in a span called name."""
        layer = name.partition(".")[0]
        get_l = _l_getter(fn)
        stack, stats, counters = self._stack, self.stats, self.counters
        clock = time.perf_counter
        is_kernel = layer == "kernels"
        is_hygiene = name == HYGIENE
        is_conditional = name == CONDITIONAL

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                key = (name, get_l(args, kwargs) if get_l else None, parent)
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
            if is_kernel:
                row[3] += _array_bytes(args, result)
            elif is_hygiene and args and result is not args[0]:
                counters["hygiene_corrections"] += 1
            elif is_conditional and getattr(result, "gamma", 0.0) != 0.0:
                counters["conditional_applied"] += 1
            return result

        span.__wrapped__ = fn
        return span

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, key, name):
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self.wrap(original, name)
        else:
            original = getattr(owner, key)
            setattr(owner, key, self.wrap(original, name))
        self._patches.append((owner, key, original))

    def install(self, modules: dict) -> int:
        """Wrap the layer functions bound in each module of {layer: module};
        returns the number of call sites patched."""
        for caller, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                package, _, owner = value.__module__.rpartition(".")
                if owner not in LAYERS or not package:
                    continue
                cross = owner != caller and not attr.startswith("_")
                if cross or (owner == caller and attr in INTRA_MODULE.get(caller, ())):
                    self._patch(module, attr, f"{owner}.{value.__name__}")
        runners = getattr(modules.get("cli"), "RUNNERS", None)
        if isinstance(runners, dict):
            for key, fn in list(runners.items()):
                if isinstance(fn, types.FunctionType):
                    self._patch(runners, key, f"cli.{fn.__name__}")
        return len(self._patches)

    def restore(self):
        """Put every patched binding back, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def rows(self) -> list:
        return [[name, l, parent, *vals] for (name, l, parent), vals in self.stats.items()]


# ---------------------------------------------------------------------------
# derived metrics (plain Python: the orchestrator calls these without numpy)
# ---------------------------------------------------------------------------

def _sum(rows, index, pred):
    return sum(r[index] for r in rows if pred(r))


def layer_metrics(rows: list, counters: dict) -> dict:
    """Per-layer metrics of one traced repetition, from ``Tracer.rows``.

    Row layout: [name, l, parent, calls, total_s, self_s, bytes].
    """
    def layer(r):
        return r[0].partition(".")[0]

    def named(name):
        return lambda r: r[0] == name

    def per_call_us(name):
        calls = _sum(rows, 3, named(name))
        return _sum(rows, 4, named(name)) / calls * 1e6 if calls else 0.0

    out = {}
    for lay in ("spin", "kernels", "channels", "metrics"):
        out[f"{lay}.calls"] = _sum(rows, 3, lambda r, lay=lay: layer(r) == lay)
        out[f"{lay}.self_s"] = _sum(rows, 5, lambda r, lay=lay: layer(r) == lay)
    kcalls = out["kernels.calls"]
    ktotal = _sum(rows, 4, lambda r: layer(r) == "kernels")
    out["kernels.us_per_call"] = ktotal / kcalls * 1e6 if kcalls else 0.0
    out["kernels.bytes_computed"] = _sum(rows, 6, lambda r: layer(r) == "kernels")
    out["channels.hygiene_calls"] = _sum(rows, 3, named(HYGIENE))
    out["channels.hygiene_corrections"] = counters.get("hygiene_corrections", 0)
    out["channels.hygiene_s"] = _sum(rows, 4, named(HYGIENE))
    out["metrics.summarize_us"] = per_call_us("metrics.summarize_frame")
    out["metrics.p_succ_us"] = per_call_us("metrics.p_succ")

    trials = _sum(rows, 3, lambda r: r[0] == "channels.unitary_channel" and r[2] == CONDITIONAL)
    applied = counters.get("conditional_applied", 0)
    out["trajectory.self_s"] = _sum(rows, 5, lambda r: layer(r) == "trajectory")
    out["trajectory.steps"] = _sum(
        rows, 3, lambda r: r[0] in STEP_SPANS and r[2] != CONDITIONAL) + applied
    out["trajectory.ensemble_statistics_s"] = _sum(
        rows, 4, named("trajectory.ensemble_statistics"))
    out["trajectory.conditional_trials"] = trials
    out["trajectory.conditional_useful_ratio"] = applied / trials if trials else 0.0

    stages = ("cli.load_config", "cli.write_outputs")
    out["cli.self_s"] = _sum(rows, 5, lambda r: layer(r) == "cli" and r[0] not in stages)
    out["cli.load_config_s"] = _sum(rows, 4, named("cli.load_config"))
    out["cli.write_outputs_s"] = _sum(rows, 4, named("cli.write_outputs"))
    return out


def per_l_table(rows: list) -> dict:
    """{span name: {l: {"calls", "us_per_call"}}}, summed over parents."""
    acc: dict = {}
    for name, l, _parent, calls, total, _self, _bytes in rows:
        cell = acc.setdefault(name, {}).setdefault(l, [0, 0.0])
        cell[0] += calls
        cell[1] += total
    return {name: {"-" if l is None else format(l, "g"): {"calls": c, "us_per_call": t / c * 1e6}
                   for l, (c, t) in sorted(ls.items(), key=lambda kv: kv[0] or 0.0)}
            for name, ls in sorted(acc.items())}
