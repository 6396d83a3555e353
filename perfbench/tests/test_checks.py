"""Reference comparator and failure counting."""

import checks


def test_floats_match_to_relative_tolerance():
    assert checks.compare(1.0, 1.0 + 5e-10) == []
    assert checks.compare(1.0, 1.0 + 2e-9) != []
    assert checks.compare(-3e-30, -3e-30 * (1 + 5e-10)) == []
    assert checks.compare(0.0, 0.0) == []
    assert checks.compare(0.0, 1e-300) != []
    assert checks.compare(float("inf"), float("inf")) == []
    assert checks.compare(float("inf"), 1e308) != []
    assert checks.compare(float("nan"), float("nan")) == []


def test_exact_kinds_and_structure():
    assert checks.compare(True, True) == []
    assert checks.compare(True, 1) != []
    assert checks.compare(3, 3) == []
    assert checks.compare(3, 4) != []
    assert checks.compare("a", "b") != []
    assert checks.compare(None, None) == []
    assert checks.compare([1.0, [2.0]], [1.0, [2.0]]) == []
    assert checks.compare([1.0], [1.0, 2.0]) != []
    assert checks.compare({"a": 1.0}, {"b": 1.0}) != []
    miss = checks.compare({"a": [1.0, 2.0]}, {"a": [1.0, 2.5]}, path="x")
    assert miss and miss[0].startswith("x.a[1]")


def test_broken_column_reports_few_lines():
    got = [[float(i), 0.0] for i in range(100)]
    want = [[float(i), 1.0] for i in range(100)]
    assert 0 < len(checks.compare(got, want)) <= 6


def test_csv_rows_drop_fingerprint():
    text = "# fingerprint=abc\nx,y\n1.5,a\n"
    assert checks.csv_rows(text) == [["x", "y"], [1.5, "a"]]


REF = {"seed": 0, "seed_dependent": ["op/noisy"],
       "artifacts": {"op/fixed": 1.0, "op/noisy": 2.0, "op/ok": True}}


ALL = {"op/fixed": 1.0, "op/noisy": 2.0, "op/ok": True}


def check(artifacts, seed):
    return checks.check_artifacts("op", artifacts, REF, seed)


def test_reference_seed_compares_everything():
    assert check(ALL, 0) == []
    assert check({**ALL, "op/noisy": 2.1}, 0) != []


def test_other_seed_compares_seed_independent_only():
    assert check({**ALL, "op/noisy": 9.0}, 7) == []
    assert check({**ALL, "op/noisy": 9.0, "op/fixed": 1.1}, 7) != []


def test_other_seed_must_move_seed_dependent_output():
    miss = check(ALL, 7)
    assert len(miss) == 1 and "identical" in miss[0]


def test_unknown_artifact_is_a_miss():
    assert check({**ALL, "op/new": 1.0}, 0) != []


def test_missing_artifact_is_a_miss():
    miss = check({"op/fixed": 1.0}, 0)
    assert miss == ["op/noisy: in the reference, missing from the run",
                    "op/ok: in the reference, missing from the run"]
    # only the operation's own reference artifacts are required
    assert checks.check_artifacts("other", {}, REF, 0) == []


def test_tally_counts_every_failure():
    tally = checks.Tally({"slow": "ZeroDivisionError"})
    tally.record("ok", None, [])
    tally.record("slow", ZeroDivisionError("float division by zero"), [])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    tally.record("slow", ValueError("other"), [])
    assert (tally.failed, tally.correct) == (2, False)


def test_tally_counts_output_miss_as_failure():
    tally = checks.Tally()
    tally.record("op", None, ["op/x: 1 != 2"])
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)
    assert list(tally.reasons.values()) == [1]


def test_reference_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "REFERENCE_DIR", tmp_path)
    checks.save_reference("w", REF)
    first = checks.reference_path("w").read_bytes()
    assert checks.load_reference("w") == REF
    checks.save_reference("w", REF)
    assert checks.reference_path("w").read_bytes() == first
