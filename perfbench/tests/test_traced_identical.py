"""Wrapping the package changes no output: the recipes write byte-identical
files with the tracer installed and without it."""

import tracer
import workloads

SMALL_CONFIGS = {
    # packaged recipes trimmed to test size; the Monte-Carlo recipe still
    # runs both combiners and the ZF inverse
    "rate-vs-M": "recipe: rate-vs-M\narray:\n  realizations: 300\n"
                 "sweep:\n  variable: n_sensors\n  start: 16\n  stop: 32\n"
                 "  points: 2\n  scale: log\n",
    "detuning-loss": "recipe: detuning-loss\nsweep:\n  variable: detuning_khz\n"
                     "  start: -2.0e+05\n  stop: 2.0e+05\n  points: 21\n"
                     "  scale: linear\n",
}
PACKAGED = ("waveform-overlay", "sn-vs-ratio", "siso-optima", "power-scaling")


def _ops(tmp_path, out):
    ops = [workloads.recipe_op(r, workloads._packaged(r), out) for r in PACKAGED]
    for recipe, text in SMALL_CONFIGS.items():
        cfg = tmp_path / f"{recipe}.yaml"
        cfg.write_text(text)
        ops.append(workloads.recipe_op(recipe, cfg, out))
    return ops


def _files(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def test_traced_outputs_are_byte_identical(tmp_path):
    for op in _ops(tmp_path, tmp_path / "plain"):
        op.run(5)
    t = tracer.Tracer()
    t.install()
    try:
        for op in _ops(tmp_path, tmp_path / "traced"):
            op.run(5)
    finally:
        t.uninstall()
    plain, traced = _files(tmp_path / "plain"), _files(tmp_path / "traced")
    assert sorted(plain) == sorted(traced)
    assert sum(name.suffix == ".csv" for name in plain) == len(PACKAGED) + 2
    for name in plain:
        assert plain[name] == traced[name], name
    fns = {t.functions[s[0]] for s in t.spans}
    assert {"raqr.cli.main", "raqr.mimo.monte_carlo_rate",
            "raqr.atomic.steady_state_numeric",
            "raqr.waveform.simulate_waveform"} <= fns
