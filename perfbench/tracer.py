"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces every public function of the layer modules, at
every module attribute (and module-level dict value) that binds it, with a
wrapper that records a span: function, start, end, parent span, and whether
an exception escaped. ``uninstall`` puts the originals back, so untraced
passes run the package exactly as shipped. Spans stay in memory until
``dump``. ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

# package module -> layer; defaults.py holds constants and factories only
LAYERS = {
    "raqr.atomic": "atomic",
    "raqr.frontend": "frontend",
    "raqr.waveform": "waveform",
    "raqr.optimize": "optimize",
    "raqr.mimo": "mimo",
    "raqr.config": "harness",
    "raqr.recipes": "harness",
    "raqr.cli": "harness",
}
ERROR_LAYERS = ("harness", "atomic", "frontend", "optimize", "waveform", "mimo")


class UnwrappedBinding(RuntimeError):
    """A module still binds a traced function to its original object."""


def _arguments(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def _mc_note(bind):
    def note(args, kwargs, result):
        a = bind(args, kwargs)
        sc = a["scenario"]
        return [sc.n_sensors, sc.n_users, sc.seed, sc.n_realizations,
                a["method"]]
    return note


def _waveform_note(bind):
    def note(args, kwargs, result):
        return [len(result.t), bind(args, kwargs)["rho_solver"]]
    return note


# Per-function notes kept with the span, taken from arguments and result.
NOTES = {
    "raqr.mimo.monte_carlo_rate": _mc_note,
    "raqr.mimo.monte_carlo_terms": _mc_note,
    "raqr.waveform.simulate_waveform": _waveform_note,
    "raqr.waveform.demodulate_iq":
        lambda bind: lambda a, k, r: len(bind(a, k)["v_samples"]),
    "raqr.recipes.emit_plotdata":
        lambda bind: lambda a, k, r: len(bind(a, k)["result"].rows),
    "raqr.optimize.newton_optimal_p0": lambda bind: lambda a, k, r: r.iterations,
}


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with _."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.functions: list[str] = []   # "raqr.atomic.steady_state_numeric"
        self.layers: list[str] = []
        self.spans: list[list] = []      # [fid, start_ns, end_ns, parent, escaped]
        self.notes: dict[int, object] = {}
        self._local = threading.local()
        self._wrappers: dict[int, object] = {}   # id(original) -> wrapper
        self._originals: dict[int, object] = {}
        self._patched: list[tuple] = []
        for mod_name, layer in LAYERS.items():
            module = sys.modules[mod_name]
            for name, fn in sorted(public_functions(module).items()):
                qual = f"{mod_name}.{name}"
                fid = len(self.functions)
                self.functions.append(qual)
                self.layers.append(layer)
                note = NOTES.get(qual)
                self._originals[id(fn)] = fn
                self._wrappers[id(fn)] = self._wrap(
                    fn, fid, note(_arguments(fn)) if note else None)

    def _wrap(self, fn, fid, note):
        spans, notes, local = self.spans, self.notes, self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = len(spans)
            rec = [fid, 0, 0, stack[-1] if stack else -1, False]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                rec[4] = True
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result
        return wrapper

    def _is_original(self, value) -> bool:
        return self._originals.get(id(value), self) is value

    def _bindings(self):
        """(namespace, key, value) for every attribute of a raqr module and
        every value of a dict held in one."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "raqr" and not mod_name.startswith("raqr."):
                continue
            for key, value in vars(module).items():
                if key == "__builtins__":
                    continue
                yield vars(module), key, value
                if isinstance(value, dict):
                    for k, v in value.items():
                        yield value, k, v

    def install(self) -> None:
        for ns, key, value in list(self._bindings()):
            if self._is_original(value):
                ns[key] = self._wrappers[id(value)]
                self._patched.append((ns, key, value))
        self.verify()

    def verify(self) -> None:
        left = [key for _, key, value in self._bindings()
                if self._is_original(value)]
        if left:
            raise UnwrappedBinding(f"unwrapped bindings: {sorted(left)}")

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.functions, "layers": self.layers,
                       "spans": self.spans,
                       "notes": {str(k): v for k, v in self.notes.items()}},
                      fh, separators=(",", ":"))


# --------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval covered by its
    child spans (children may overlap when they ran on several threads)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[i]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def escaped_errors(spans: list[list], layers_of_span: list[str]) -> dict[str, int]:
    """Exceptions that left a layer: spans that ended by raising, whose
    caller is outside the layer (another layer, or the benchmark)."""
    out: dict[str, int] = {}
    for i, s in enumerate(spans):
        if s[4] and (s[3] < 0 or layers_of_span[s[3]] != layers_of_span[i]):
            out[layers_of_span[i]] = out.get(layers_of_span[i], 0) + 1
    return out


def _has_ancestor(spans, i, fids) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in fids:
            return True
        p = spans[p][3]
    return False


def layer_metrics(functions, layers, spans, notes, passes: int) -> dict:
    """Per-layer metrics for ``passes`` identical traced passes. Counts and
    self times are per pass; per-call and per-sample times are means over
    all spans of the function."""
    fid = {name: i for i, name in enumerate(functions)}
    span_layer = [layers[s[0]] for s in spans]
    selfs = self_times(spans)
    by_fn: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_fn.setdefault(s[0], []).append(i)

    def idx(*names):
        return [i for n in names if n in fid for i in by_fn.get(fid[n], [])]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def per_call(ids, scale):
        ok = [i for i in ids if not spans[i][4]]
        return sum(dur(i) for i in ok) / len(ok) / scale if ok else 0.0

    def per_sample(ids, samples):  # microseconds
        return sum(dur(i) for i in ids) / samples / 1e3 if samples else 0.0

    def per_pass(x):
        return x / passes

    def layer_self(layer):
        return per_pass(sum(t for t, l in zip(selfs, span_layer)
                            if l == layer) / 1e9)

    m = {}
    emit = idx("raqr.recipes.emit_plotdata")
    m["recipes.emit.ms_per_call"] = per_call(emit, 1e6)
    m["recipes.csv_rows"] = per_pass(sum(notes.get(i, 0) for i in emit))
    m["recipes.self_s"] = per_pass(sum(
        selfs[i] for i in range(len(spans))
        if functions[spans[i][0]].startswith("raqr.recipes.")) / 1e9)

    steady = idx("raqr.atomic.steady_state_numeric")
    build = idx("raqr.atomic.build_liouvillian")
    m["atomic.steady_state.calls"] = per_pass(len(steady))
    m["atomic.steady_state.us_per_call"] = per_call(steady, 1e3)
    m["atomic.build_liouvillian.calls"] = per_pass(len(build))
    m["atomic.build_liouvillian.us_per_call"] = per_call(build, 1e3)
    m["atomic.self_s"] = layer_self("atomic")

    m["frontend.baseband_gains.calls"] = per_pass(
        len(idx("raqr.frontend.baseband_gains")))
    m["frontend.noise_budget.calls"] = per_pass(
        len(idx("raqr.frontend.noise_budget")))
    m["frontend.self_s"] = layer_self("frontend")

    noise = idx("raqr.optimize.normalized_noise")
    cross = idx("raqr.mimo.crossover_threshold")
    cross_fid = {fid.get("raqr.mimo.crossover_threshold")}
    m["optimize.normalized_noise.calls"] = per_pass(len(noise))
    m["optimize.normalized_noise.us_per_call"] = per_call(noise, 1e3)
    m["optimize.newton.iterations"] = per_pass(sum(
        notes.get(i, 0) for i in idx("raqr.optimize.newton_optimal_p0")))
    m["optimize.crossover.noise_evals"] = (
        sum(_has_ancestor(spans, i, cross_fid) for i in noise) / len(cross)
        if cross else 0.0)
    m["optimize.design_report.ms_per_call"] = per_call(
        idx("raqr.optimize.design_report"), 1e6)
    m["optimize.self_s"] = layer_self("optimize")

    sims = idx("raqr.waveform.simulate_waveform")
    for solver, key in (("closed-form", "closed"), ("liouvillian", "liouvillian")):
        ids = [i for i in sims if i in notes and notes[i][1] == solver]
        m[f"waveform.{key}.us_per_sample"] = per_sample(
            ids, sum(notes[i][0] for i in ids))
    demod = [i for i in idx("raqr.waveform.demodulate_iq") if i in notes]
    m["waveform.demodulate.us_per_sample"] = per_sample(
        demod, sum(notes[i] for i in demod))
    m["waveform.samples"] = per_pass(sum(notes[i][0] for i in sims if i in notes))
    m["waveform.self_s"] = layer_self("waveform")

    mc = [i for i in idx("raqr.mimo.monte_carlo_rate", "raqr.mimo.monte_carlo_terms")
          if i in notes]
    keys = [tuple(notes[i]) for i in mc]
    realizations = sum(k[3] for k in keys)
    m["mimo.mc.calls"] = per_pass(len(mc))
    m["mimo.mc.realizations"] = per_pass(realizations)
    m["mimo.mc.us_per_realization"] = per_sample(mc, realizations)
    # MC passes per pass over the distinct keys of one pass (every traced
    # pass runs at the same seed, so all passes share one key set)
    m["mimo.mc.passes_per_draw_set"] = (
        per_pass(len(keys)) / len(set(keys)) if keys else 0.0)
    # standard normals per realization: channel 2MK, symbols 2K, shot
    # diagonal M, AWGN 2M; computed from the call sizes, not counted
    m["mimo.mc.normals_drawn"] = per_pass(sum(
        (2 * mm * kk + 2 * kk + 3 * mm) * n for mm, kk, _, n, _ in keys))
    m["mimo.closed_form.calls"] = per_pass(len(idx(
        "raqr.mimo.closed_form_moments", "raqr.mimo.sinr_lb_mrc",
        "raqr.mimo.sinr_lb_zf", "raqr.mimo.asymptotic_rate")))
    m["mimo.crossover.ms_per_call"] = per_call(cross, 1e6)
    m["mimo.self_s"] = layer_self("mimo")

    errors = escaped_errors(spans, span_layer)
    for layer in ERROR_LAYERS:
        m[f"{layer}.errors"] = per_pass(errors.get(layer, 0))
    return m
