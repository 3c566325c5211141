"""The fixture campaign reproduces its recorded outputs byte for byte.

``tests/golden/`` holds the files written by

    sotifkit run --odd odd.json --taxonomy taxonomy.json \\
        --effects effects.json --occurrence occurrence.json \\
        --criteria criteria.json --mitigations mitigations.json \\
        --seed 42 --runs 20 --out OUT

on the shipped fixtures, with ``meta.created_utc`` in ``bundle.json``
blanked to ``""``.  A change that keeps every result leaves them alone; a
change that moves a result on purpose re-records them with that command
and says why.

The command runs twice: in-process, and in a fresh interpreter, where
numpy is first imported by the campaign's first ghost draw.
"""

from __future__ import annotations

import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from sotifkit.cli import EXIT_GATE_FAILED, main
from sotifkit.errors import json_encoder
from sotifkit.fixtures import fixture_path
from sotifkit.report import (
    bundle_text,
    bundle_to_dict,
    emit_markdown_summary,
    load_bundle,
    write_bundle,
)

from conftest import run_fresh_python

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FILES = (
    "kpis.csv",
    "risk.csv",
    "analysis_sheet.csv",
    "summary.md",
    "bundle.json",
    "traces/traces.jsonl",
)


def golden_args(out: Path) -> list[str]:
    args = ["run", "--out", str(out), "--seed", "42", "--runs", "20"]
    for flag in ("odd", "taxonomy", "effects", "occurrence", "criteria", "mitigations"):
        args += [f"--{flag}", str(fixture_path(f"{flag}.json"))]
    return args


@pytest.fixture(scope="module")
def campaign_out(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden") / "bundle"
    assert main(golden_args(out)) == EXIT_GATE_FAILED
    return out


@pytest.fixture(scope="module")
def fresh_campaign_out(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden-fresh") / "bundle"
    done = run_fresh_python("-m", "sotifkit.cli", *golden_args(out))
    assert done.returncode == EXIT_GATE_FAILED, done.stderr
    return out


def assert_matches_golden(out: Path, name: str) -> None:
    produced = (out / name).read_bytes()
    if name == "bundle.json":
        produced = re.sub(rb'"created_utc": "[^"]*"', b'"created_utc": ""', produced, count=1)
    assert produced == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_fixture_campaign_matches_golden(name, campaign_out):
    assert_matches_golden(campaign_out, name)


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_fresh_interpreter_campaign_matches_golden(name, fresh_campaign_out):
    assert_matches_golden(fresh_campaign_out, name)


def test_golden_bundle_reads_back():
    """The recorded bundle.json loads, renders the recorded summary.md, and
    writes back the bytes it was read from: the reader and the writer both
    keep to the recorded format."""
    bundle = load_bundle(GOLDEN)
    assert emit_markdown_summary(bundle).encode("utf-8") == (GOLDEN / "summary.md").read_bytes()
    written = bundle_text(bundle_to_dict(bundle))
    assert written.encode("utf-8") == (GOLDEN / "bundle.json").read_bytes()


def test_write_holds_less_than_the_file(tmp_path):
    """write_bundle writes bundle.json an item line at a time: beyond the
    dict tree it writes from, it holds less than the file's size at once,
    not the file's whole text."""
    bundle = load_bundle(GOLDEN)
    write_bundle(bundle, tmp_path / "warm-up")  # the first write's imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = bundle_to_dict(bundle)
        tree = tracemalloc.get_traced_memory()[0] - before
        del data
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        path = write_bundle(bundle, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - tree < path.stat().st_size


def json_values(value: object):
    """``value`` and every value nested in it."""
    yield value
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    for child in children:
        yield from json_values(child)


class TestJsonEncoder:
    """bundle.json and traces.jsonl are written by one reused encoder,
    ``errors.json_encoder``, which must write ``json.dumps``'s bytes."""

    def test_writes_json_dumps_bytes(self):
        documents = [json.loads((GOLDEN / "bundle.json").read_text(encoding="utf-8"))]
        lines = (GOLDEN / "traces" / "traces.jsonl").read_text(encoding="utf-8").splitlines()
        documents += map(json.loads, lines)
        dumps = json_encoder()
        assert dumps is not json.dumps  # this interpreter's json has the C encoder
        for value in (v for document in documents for v in json_values(document)):
            assert dumps(value) == json.dumps(value)

    def test_failed_encode_keeps_nothing(self):
        # A circular-reference marker left by the failed value would keep
        # it, and the containers around it, alive.
        dumps = json_encoder()
        bad = object()
        inner = {"bad": bad}
        outer = [1.5, inner]
        counts = [sys.getrefcount(x) for x in (bad, inner, outer)]
        try:
            dumps({"outer": outer})
        except TypeError:
            pass
        else:
            pytest.fail("an object() was encoded")
        assert [sys.getrefcount(x) for x in (bad, inner, outer)] == counts
        value = {"outer": [1.5, {"ok": None}], "s": "\u00e9"}
        assert dumps(value) == json.dumps(value)

    def test_golden_bytes_without_the_c_encoder(self, monkeypatch, tmp_path):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert json_encoder() is json.dumps
        written = bundle_text(bundle_to_dict(load_bundle(GOLDEN)))
        assert written.encode("utf-8") == (GOLDEN / "bundle.json").read_bytes()
        out = tmp_path / "bundle"
        assert main(golden_args(out)) == EXIT_GATE_FAILED
        assert_matches_golden(out, "bundle.json")
        assert_matches_golden(out, "traces/traces.jsonl")
