"""The golden corpus: the ``results`` blocks of a fixed set of CLI calls on
the fixtures, recorded so that a change that moves a result shows.

``tests/test_golden.py`` reruns the calls and compares them with the corpus.
Integers and strings must match exactly, and so must floats, unless the
call's entry names a tolerance for that field. A tolerance maps a dotted
path (list indices count as keys, ``fnmatch`` wildcards allowed, e.g.
``results.sweep.*.theta``) to ``{"abs": <bound>, "reason": "<why it may move>"}``.

Regenerate the corpus after a change that is meant to move a result, and
say in CHANGES.md which fields moved, by how much and why:

    PYTHONPATH=src python tests/golden.py

Tolerances already in the corpus are carried over to the new one.
"""
from __future__ import annotations

import contextlib
import fnmatch
import hashlib
import io
import json
import pathlib
import sys

import numpy as np

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "golden_results.json"

_TWO = ["--model", "{fixtures}/two_node_model.json", "--steps", "3"]
_ONE = ["--model", "{fixtures}/one_node_model.json", "--steps", "4"]
_PATTERNS = ("00", "01", "10", "11", "1*", "*0")
_TRACES = [f"trace_1node_{kind}_t{t}" for kind in ("noisy", "device") for t in (1, 2, 3, 4)]
_TRACES += [f"trace_2node_c{c}" for c in ("00", "01", "10", "11")]

# (name, argv); "{fixtures}" is the fixture directory and "{out}" the
# directory the reports of earlier calls are written to, as "<name>.json"
CALLS = [
    ("exact-two-node", ["exact", *_TWO]),
    ("exact-one-node", ["exact", *_ONE]),
    ("mc-two-node", ["mc", *_TWO, "--runs", "2000", "--seed", "5", "--repeats", "3"]),
    ("circuit-model", ["circuit", *_TWO]),
    ("circuit-grover", ["circuit", *_TWO, "--kind", "grover", "--config", "1*"]),
    ("circuit-qae", ["circuit", *_TWO, "--kind", "qae", "--config", "11", "--bits", "4"]),
    ("circuit-qae-9", ["circuit", *_TWO, "--kind", "qae", "--config", "1*", "--bits", "9"]),
    *[(f"qae-{pattern}", ["qae", *_TWO, "--config", pattern, "--bits", "3..9",
                          "--shots", "2000", "--seed", "17"]) for pattern in _PATTERNS],
    *[(f"eigenphase-{pattern}", ["qae", *_TWO, "--config", pattern, "--eigenphase"])
      for pattern in _PATTERNS],
    ("lowdepth-two-node", ["lowdepth", *_TWO, "--config", "11", "--schedule", "0..12",
                           "--shots", "500", "--seed", "6"]),
    ("lowdepth-two-node-noise-a", ["lowdepth", *_TWO, "--config", "11", "--schedule", "0..12",
                                   "--shots", "500", "--seed", "6", "--noise-a", "0.1"]),
    ("lowdepth-one-node-noise-a", ["lowdepth", *_ONE, "--config", "1", "--schedule", "0,1,2,4,8",
                                   "--shots", "300", "--seed", "2", "--noise-a", "0.2",
                                   "--fix-f", "0.5"]),
    *[(f"fit-{trace}", ["fit", "--trace", f"{{fixtures}}/{trace}.csv"]) for trace in _TRACES],
    ("plotdata-spread", ["plotdata", "--report", "{out}/mc-two-node.json", "--figure", "spread"]),
    ("plotdata-bits", ["plotdata", "--report", "{out}/qae-1*.json", "--figure", "bits"]),
    ("plotdata-schedule", ["plotdata", "--report", "{out}/lowdepth-two-node-noise-a.json",
                           "--figure", "schedule"]),
]


def _csv_value(text: str):
    """A CSV field as the int, float or string it was printed from."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def run_call(argv: list[str], out: pathlib.Path) -> dict:
    """Run one call through ``cascadeq.cli.main`` with its report written to
    ``out``; its exit code, stderr and results. A circuit listing is kept as
    its SHA-256 and UTF-8 byte count, and a ``plotdata`` CSV as its rows."""
    from cascadeq.cli import main

    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    entry = {"exit": code, "stderr": stderr.getvalue()}
    if code == 0:
        text = out.read_text(encoding="utf-8")
        if argv[0] == "plotdata":
            entry["rows"] = [[_csv_value(v) for v in line.split(",")]
                             for line in text.splitlines()]
        else:
            results = json.loads(text)["results"]
            if "gates" in results:
                listing = results.pop("gates").encode("utf-8")
                results["gates_sha256"] = hashlib.sha256(listing).hexdigest()
                results["gates_bytes"] = len(listing)
            entry["results"] = results
    return entry


def run_all(out_dir: pathlib.Path) -> dict[str, dict]:
    """Every call of the corpus, in order, by name."""
    entries = {}
    for name, argv in CALLS:
        run = [a.format(fixtures=FIXTURES, out=out_dir) for a in argv]
        entries[name] = {"argv": argv, **run_call(run, out_dir / f"{name}.json")}
    return entries


def mismatches(want, got, tolerances: dict, path: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: every dict key, list length, type
    and value must match, a float to within the tolerance its path names
    (exactly when it names none)."""
    where = path or "<top>"
    if type(got) is not type(want):
        return [f"{where}: {got!r} is a {type(got).__name__}, the corpus has {want!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} differ from the corpus's {sorted(want)}"]
        return [m for key in want
                for m in mismatches(want[key], got[key], tolerances, f"{path}.{key}".lstrip("."))]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} entries, the corpus has {len(want)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, tolerances, f"{path}.{i}".lstrip("."))]
    if isinstance(want, float):
        bound = max((tol["abs"] for pattern, tol in tolerances.items()
                     if fnmatch.fnmatchcase(where, pattern)), default=0.0)
        if got == want or (got != got and want != want) or abs(got - want) <= bound:
            return []
        return [f"{where}: {got!r}, the corpus has {want!r} (|diff| {abs(got - want):.3g}, "
                f"tolerance {bound})"]
    return [] if got == want else [f"{where}: {got!r}, the corpus has {want!r}"]


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def regenerate(out_dir: pathlib.Path) -> dict:
    """A new corpus from the current source, keeping the old one's tolerances."""
    old = load()["calls"] if CORPUS.exists() else {}
    calls = run_all(out_dir)
    for name, entry in calls.items():
        tolerances = old.get(name, {}).get("tolerances")
        if tolerances:
            entry["tolerances"] = tolerances
    return {"numpy": np.__version__, "calls": calls}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = regenerate(pathlib.Path(tmp))
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = [name for name, entry in corpus["calls"].items() if entry["exit"] != 0]
    print(f"wrote {len(corpus['calls'])} calls to {CORPUS}"
          + (f"; nonzero exit: {failed}" if failed else ""))
    sys.exit(1 if failed else 0)
