"""Span arithmetic and wrapper coverage of the tracer."""

import pytest

import tracer


def span(fid, start, end, parent=-1, escaped=False):
    return [fid, start, end, parent, escaped]


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, 0, 100),          # root
        span(1, 10, 40, 0),       # child
        span(2, 15, 25, 1),       # grandchild: counts against the child only
        span(1, 50, 70, 0),       # second child
    ]
    assert tracer.self_times(spans) == [100 - 30 - 20, 30 - 10, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 0, 100), span(1, 10, 60, 0), span(1, 40, 80, 0),
             span(1, 45, 50, 0)]
    assert tracer.self_times(spans)[0] == 100 - 70


def test_self_time_clips_children_to_parent():
    spans = [span(0, 0, 100), span(1, 90, 120, 0)]
    assert tracer.self_times(spans)[0] == 90


def test_errors_count_only_exceptions_that_leave_a_layer():
    layers = ["optimize", "optimize", "mimo"]
    spans = [span(0, 0, 10, -1, True), span(1, 1, 5, 0, True),
             span(2, 20, 30, -1, False)]
    assert tracer.escaped_errors(spans, layers) == {"optimize": 1}
    spans = [span(2, 0, 10, -1, False), span(0, 1, 5, 0, True)]
    assert tracer.escaped_errors(spans, ["mimo", "optimize"]) == {"optimize": 1}


def _metrics(functions, spans, notes=None, passes=1):
    layers = [tracer.LAYERS[f.rsplit(".", 1)[0]] for f in functions]
    return tracer.layer_metrics(functions, layers, spans, notes or {}, passes)


def test_crossover_noise_evals_per_solve():
    functions = ["raqr.mimo.crossover_threshold",
                 "raqr.optimize.normalized_noise", "raqr.frontend.with_powers"]
    spans = [span(0, 0, 100)]
    spans += [span(1, 1 + i, 2 + i, 0) for i in range(4)]
    spans += [span(0, 200, 300)]
    spans += [span(1, 201 + i, 202 + i, 5) for i in range(2)]
    spans += [span(1, 400, 401)]  # outside any crossover
    m = _metrics(functions, spans, passes=2)
    assert m["optimize.crossover.noise_evals"] == 3.0
    assert m["optimize.normalized_noise.calls"] == 3.5
    assert m["mimo.crossover.ms_per_call"] == 100 / 1e6


def test_monte_carlo_draw_sets():
    functions = ["raqr.mimo.monte_carlo_rate", "raqr.mimo.monte_carlo_terms"]
    spans = [span(0, 0, 10), span(0, 10, 20), span(1, 20, 30)]
    notes = {0: [100, 10, 0, 2000, "MRC"], 1: [100, 10, 0, 2000, "MRC"],
             2: [16, 10, 0, 4000, "ZF"]}
    m = _metrics(functions, spans, notes)
    assert m["mimo.mc.calls"] == 3
    assert m["mimo.mc.realizations"] == 8000
    assert m["mimo.mc.passes_per_draw_set"] == 1.5
    per_mrc = 2 * 100 * 10 + 2 * 10 + 3 * 100
    per_zf = 2 * 16 * 10 + 2 * 10 + 3 * 16
    assert m["mimo.mc.normals_drawn"] == 2 * 2000 * per_mrc + 4000 * per_zf
    assert m["mimo.mc.us_per_realization"] == 30 / 8000 / 1e3
    # a second identical pass repeats every key; the ratio must not double
    spans += [span(0, 30, 40), span(0, 40, 50), span(1, 50, 60)]
    notes.update({3: notes[0], 4: notes[1], 5: notes[2]})
    m = _metrics(functions, spans, notes, passes=2)
    assert m["mimo.mc.calls"] == 3
    assert m["mimo.mc.passes_per_draw_set"] == 1.5


def test_every_binding_is_wrapped_and_restored():
    import raqr.cli  # noqa: F401  (loads the harness modules)
    import raqr.mimo
    import raqr.recipes
    import raqr.waveform
    import raqr.atomic
    import raqr.optimize

    before = {
        "recipes.steady_state_numeric": raqr.recipes.steady_state_numeric,
        "waveform.steady_state_numeric": raqr.waveform.steady_state_numeric,
        "mimo.normalized_noise": raqr.mimo.normalized_noise,
        "recipes.normalized_noise": raqr.recipes.normalized_noise,
        "recipes.simulate_waveform": raqr.recipes.simulate_waveform,
        "optimize.p1_of_lo": raqr.optimize.p1_of_lo,
        "mimo.with_powers": raqr.mimo.with_powers,
        "recipes.baseband_gains": raqr.recipes.baseband_gains,
        "RECIPES[rate-vs-M]": raqr.recipes.RECIPES["rate-vs-M"],
    }
    t = tracer.Tracer()
    t.install()
    try:
        after = {
            "recipes.steady_state_numeric": raqr.recipes.steady_state_numeric,
            "waveform.steady_state_numeric": raqr.waveform.steady_state_numeric,
            "mimo.normalized_noise": raqr.mimo.normalized_noise,
            "recipes.normalized_noise": raqr.recipes.normalized_noise,
            "recipes.simulate_waveform": raqr.recipes.simulate_waveform,
            "optimize.p1_of_lo": raqr.optimize.p1_of_lo,
            "mimo.with_powers": raqr.mimo.with_powers,
            "recipes.baseband_gains": raqr.recipes.baseband_gains,
            "RECIPES[rate-vs-M]": raqr.recipes.RECIPES["rate-vs-M"],
        }
        for key in before:
            assert after[key] is not before[key], key
            assert after[key].__wrapped__ is before[key], key
        assert raqr.recipes.steady_state_numeric is raqr.atomic.steady_state_numeric

        # a binding restored behind the tracer's back is caught
        raqr.mimo.normalized_noise = before["mimo.normalized_noise"]
        with pytest.raises(tracer.UnwrappedBinding, match="normalized_noise"):
            t.verify()
    finally:
        t.uninstall()
    assert raqr.mimo.normalized_noise is before["mimo.normalized_noise"]
    assert raqr.recipes.RECIPES["rate-vs-M"] is before["RECIPES[rate-vs-M]"]
    assert raqr.recipes.simulate_waveform is before["recipes.simulate_waveform"]


def test_spans_record_parents_and_escapes():
    import raqr.defaults
    import raqr.optimize

    t = tracer.Tracer()
    t.install()
    try:
        with pytest.raises(ZeroDivisionError):
            raqr.optimize.design_report(raqr.defaults.diod_point(),
                                        raqr.defaults.default_chain(),
                                        raqr.defaults.cesium_system())
    finally:
        t.uninstall()
    names = [t.functions[s[0]] for s in t.spans]
    assert names[0] == "raqr.optimize.design_report"
    assert t.spans[0][3] == -1 and t.spans[0][4]
    assert all(s[3] >= 0 for s in t.spans[1:])
    assert "raqr.optimize.newton_optimal_p0" in names
    m = tracer.layer_metrics(t.functions, t.layers, t.spans, t.notes, 1)
    assert m["optimize.errors"] == 1.0
    assert m["frontend.errors"] == 0.0
