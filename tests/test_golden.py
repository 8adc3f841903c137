"""The CLI's results on the fixtures match the golden corpus (``golden.py``)."""
import numpy as np

import golden


def test_cli_results_match_the_golden_corpus(tmp_path):
    corpus = golden.load()
    calls = golden.run_all(tmp_path)
    assert sorted(calls) == sorted(corpus["calls"]), "the call list differs from the corpus's"
    problems = []
    for name, want in corpus["calls"].items():
        tolerances = want.get("tolerances", {})
        for key in ("argv", "exit", "stderr", "results", "rows"):
            if key in want or key in calls[name]:
                problems += [f"{name}: {m}" for m in golden.mismatches(
                    want.get(key), calls[name].get(key), tolerances, key)]
    if problems and corpus["numpy"] != np.__version__:
        problems.append(f"the corpus was recorded with numpy {corpus['numpy']} and this is "
                        f"numpy {np.__version__}, whose seeded streams may differ (NEP 19)")
    assert not problems, "\n".join(problems)


def test_corpus_floats_match_exactly_unless_a_tolerance_names_them():
    want = {"sweep": [{"theta": 0.5, "bits": 3}], "p": 0.25}
    nudged = {"sweep": [{"theta": 0.5 + 1e-15, "bits": 3}], "p": 0.25}
    assert golden.mismatches(want, want, {}) == []
    assert golden.mismatches(want, nudged, {}) != []
    assert golden.mismatches(want, nudged, {"sweep.*.theta": {"abs": 1e-12}}) == []
    assert golden.mismatches(want, nudged, {"p": {"abs": 1e-12}}) != []
    # an int never equals a float, and keys and lengths must match
    assert golden.mismatches({"bits": 3}, {"bits": 3.0}, {}) != []
    assert golden.mismatches({"a": 1}, {"b": 1}, {}) != []
    assert golden.mismatches([1, 2], [1], {}) != []


def test_regenerating_keeps_recorded_floats_within_their_tolerance():
    tolerances = {"results.sweep.*.theta": {"abs": 1e-12}}
    old = {"results": {"sweep": [{"theta": 0.5, "p": 0.25}, {"theta": 1.0, "p": 0.5}]}}
    new = {"results": {"sweep": [{"theta": 0.5 + 1e-15, "p": 0.25 + 1e-15},
                                 {"theta": 1.1, "p": 0.5}]}}
    # theta within its tolerance keeps the recorded value; an untolerated
    # float that moved, or one past its tolerance, takes the new one
    assert golden.carried(old, new, tolerances) == {"results": {"sweep": [
        {"theta": 0.5, "p": 0.25 + 1e-15}, {"theta": 1.1, "p": 0.5}]}}
    # a changed shape is taken whole
    grown = {"results": {"sweep": [{"theta": 0.5 + 1e-15, "p": 0.25}]}}
    assert golden.carried(old, grown, tolerances) == grown
