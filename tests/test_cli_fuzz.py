"""Fuzz of ``cli.main`` over mutated model files, trace files, reports and
flag values. Whatever the input, ``main`` returns one of the documented exit
codes (0, 1, 2 or 3) and lets no exception escape.

Models have at most 4 nodes and flag values stay small, so one example
runs in milliseconds.
"""
import contextlib
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeq import NetworkModel
from cascadeq.cli import main
from helpers import save_model

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

_MODELS = [
    json.loads((FIXTURES / "one_node_model.json").read_text()),
    json.loads((FIXTURES / "two_node_model.json").read_text()),
    json.loads(save_model(NetworkModel.from_triggers(
        [0.1, 0.2, 0.3, 0.4], [0.5, 0.4, 0.3, 0.2], {(1, 2): 0.3, (2, 3): 0.4, (4, 1): 0.2}))),
]
_TRACES = [(FIXTURES / name).read_text()
           for name in ("trace_1node_noisy_t2.csv", "trace_2node_c11.csv")]
_REPORTS = {  # one report per plotdata figure
    "spread": {"results": {"runs": 10, "repeats": [{"estimates": {"1": 0.5, "0": 0.5}}]}},
    "bits": {"results": {"sweep": [{"bits": 3, "probability": 0.3},
                                   {"bits": 4, "probability": 0.31}]}},
    "schedule": {"results": {
        "trace": {"schedule": [0, 1, 2], "shots": [10, 10, 10], "marked": [3, 4, 9]},
        "exact_theta": 1.0, "noise_fit": {"theta": 1.0, "a": 0.1, "f": 0.5}}},
}
_JSON_VALUES = st.sampled_from(
    [None, True, -1, 0, 1, 0.5, 2.0, float("nan"), "x", "", [], {}, [1, 2], {"a": 1}])

# flag values, small enough that no example runs long; None marks a switch
_FLAGS = {
    "steps": ["-1", "0", "1", "3", "x"],
    "runs": ["-5", "0", "1", "x"],
    "seed": ["-1", "0", "x"],
    "repeats": ["-1", "0", "1", "3"],
    "kind": ["grover", "qae"],
    "config": ["", "0", "1", "2", "**", "10", "11", "0110", "1x"],
    "bits": ["", "x", "-1", "0", "1", "4", "2..4", "4..2", "1,3", "1..x"],
    "shots": ["-1", "0", "1", "x", "9223372036854775808"],
    "schedule": ["", "x", "-1", "0", "1,1", "0,2,5", "3..1"],
    "eigenphase": [None],
    "noise-epsilon": ["-0.1", "0", "0.2", "1", "1.5", "nan", "x"],
    "noise-a": ["-1", "0", "0.3", "inf", "nan", "x"],
    "fix-f": ["-0.5", "0", "0.5", "1", "2", "nan", "x"],
}


def _mutate_json(data, value):
    """``value`` with one node replaced by a drawn JSON value, or deleted."""
    keys = (sorted(value) if isinstance(value, dict)
            else list(range(len(value))) if isinstance(value, list) else [])
    if not keys or data.draw(st.integers(0, 3)) == 0:
        return data.draw(_JSON_VALUES)
    key = data.draw(st.sampled_from(keys))
    value = dict(value) if isinstance(value, dict) else list(value)
    if data.draw(st.booleans()):
        del value[key]
    else:
        value[key] = _mutate_json(data, value[key])
    return value


def _mutate_text(data, text: str) -> bytes:
    """``text`` with one line replaced, deleted or cut short, possibly not UTF-8."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    action = data.draw(st.sampled_from(["replace", "delete", "cut", "keep"]))
    if action == "replace":
        lines[i] = data.draw(st.text("0123456789,.-eaklmnrdhost \t", max_size=12))
    elif action == "delete":
        del lines[i]
    elif action == "cut":
        lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i])))]
    raw = ("\n".join(lines) + "\n").encode()
    return raw + b"\xff" if data.draw(st.integers(0, 9)) == 0 else raw


# per verb, the flags of a clean run on an unmutated model (CONFIG stands for
# the pattern "1*...*" of the model's length), and the flags an example may add
CONFIG = object()
_CLEAN = {
    "exact": {"steps": "2"},
    "mc": {"steps": "2", "runs": "50", "seed": "7", "repeats": "2"},
    "circuit": {"steps": "2", "kind": "model", "config": CONFIG, "bits": "3"},
    "qae": {"steps": "2", "config": CONFIG, "bits": "3", "shots": "20", "seed": "7"},
    "lowdepth": {"steps": "2", "config": CONFIG, "schedule": "0..4", "shots": "20",
                 "seed": "7"},
    "fit": {},
    "plotdata": {},
}
_OPTIONAL = {"qae": ["eigenphase"], "lowdepth": ["noise-epsilon", "noise-a", "fix-f"],
             "fit": ["fix-f"]}


def _argv(data, directory: pathlib.Path) -> list[str]:
    """A clean command line for one verb with up to three flags changed, on a
    model, trace or report file that is mutated half of the time."""
    verb = data.draw(st.sampled_from(sorted(_CLEAN)))
    flags = dict(_CLEAN[verb])
    names = [*flags, *_OPTIONAL.get(verb, [])]
    for name in data.draw(st.lists(st.sampled_from(names), max_size=3, unique=True)
                          if names else st.just([])):
        flags[name] = data.draw(st.sampled_from(_FLAGS[name]))
    if flags.keys() >= {"noise-epsilon", "noise-a"}:
        del flags["noise-a"]
    mutate = data.draw(st.booleans())
    if verb == "fit":
        path = directory / "trace.csv"
        text = data.draw(st.sampled_from(_TRACES))
        path.write_bytes(_mutate_text(data, text) if mutate else text.encode())
        argv = [verb, "--trace", str(path)]
    elif verb == "plotdata":
        path = directory / "report.json"
        figure = data.draw(st.sampled_from(sorted(_REPORTS)))
        # the figure's own report half of the time, else any report
        report = _REPORTS[data.draw(st.sampled_from([figure, *sorted(_REPORTS)]))]
        path.write_text(json.dumps(_mutate_json(data, report) if mutate else report))
        argv = [verb, "--report", str(path), "--figure", figure]
    else:
        path = directory / "model.json"
        model = data.draw(st.sampled_from(_MODELS))
        path.write_text(json.dumps(_mutate_json(data, model) if mutate else model))
        argv = [verb, "--model", str(path)]
        if flags.get("config") is CONFIG:
            flags["config"] = "1" + "*" * (len(model["nodes"]) - 1)
    for name, value in flags.items():
        argv += [f"--{name}"] if value is None else [f"--{name}", value]
    out = data.draw(st.sampled_from([None, "out.json", "missing/out.json"]))
    return argv + ["--out", str(directory / out)] if out else argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_main_exits_with_a_documented_code(fuzz_dir, data):
    # a new directory per example: on ext4, rewriting a file that an earlier
    # example wrote waits for a flush
    argv = _argv(data, pathlib.Path(tempfile.mkdtemp(dir=fuzz_dir)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
