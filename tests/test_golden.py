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

Each benchmark workload's campaign is pinned too, by the sha256 digests of
its inputs and of every file it writes (``WORKLOAD_DIGESTS``).
"""

from __future__ import annotations

import hashlib
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
    bundle_from_dict,
    bundle_text,
    bundle_to_dict,
    emit_markdown_summary,
    load_bundle,
    write_bundle,
)

from conftest import SRC, run_fresh_python

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


BENCH = SRC.parent / "bench"


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


def read_blanked(path: Path) -> bytes:
    """The bytes of an output file, with ``meta.created_utc`` blanked to ""
    in a bundle.json."""
    data = path.read_bytes()
    if path.name == "bundle.json":
        data = re.sub(rb'"created_utc": "[^"]*"', b'"created_utc": ""', data, count=1)
    return data


def assert_matches_golden(out: Path, name: str) -> None:
    assert read_blanked(out / name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_fixture_campaign_matches_golden(name, campaign_out):
    assert_matches_golden(campaign_out, name)


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_fresh_interpreter_campaign_matches_golden(name, fresh_campaign_out):
    assert_matches_golden(fresh_campaign_out, name)


# The sha256 of each benchmark workload's inputs, written at its default
# seed, and of every file its campaign writes, with ``meta.created_utc`` in
# bundle.json blanked to "".  A change that moves a result on purpose
# re-records them and says why.
WORKLOAD_DIGESTS = {
    "fixture-mc": {
        "analysis_sheet.csv": "986942afc0385761cf881687903dab7f0251a0088fcb644e116e7dc71dffae98",
        "bundle.json": "7727841b24d9f374500eb43ab489fe52a40e5632dd64b67de1d9de146438eca2",
        "kpis.csv": "55d556002dab7ad2df3b2968e919a21a1862bec09ec766dbeda6680da9b114f1",
        "risk.csv": "73dc18bce6a2d7014664376b9a6b83496dd31d62b07fa50fc00817b505ca6253",
        "summary.md": "917075e268cb41a307eccf1e4fa6e334fe87b16c9a6c74ff53abf56cc2b015e7",
        "traces/traces.jsonl": "f712aa7ae0c1987607c425413497bdcaf4dce29536d878f5fcd4c0755c8e413a",
        "inputs/criteria.json": "e7d2a78b1609b5c43d2b6d648912bd4027f41020994b6f2182bab23d1e27e680",
        "inputs/effects.json": "a43fdc99c9d75600440f22328bcb529fe33987023826c4ad75e0ad1c50cbd211",
        "inputs/mitigations.json": "928d19e4454599f4e8c498e4d6b56e0b79c5f936dbbb19300e79dd43a1f1c803",
        "inputs/occurrence.json": "9e00f427fb522aa94a81d91e14a90ed353a74ba30a1d286d5b9f00460ab5e11e",
        "inputs/odd.json": "4cca96f6b83091f4fa8af21286907fdafb1d30a3624866afa8b0e8ca11c21e77",
        "inputs/taxonomy.json": "608bfcfd7dc01120ec53d24b6ef6e539f68f52e5b6d006ed0f7cad704ea511b1",
    },
    "ghost-long": {
        "analysis_sheet.csv": "284c79334f67a672a673a0b6ffa661a374935825f6f960e749ab3751764f685c",
        "bundle.json": "c3a4cda72e3500ee433c45f6449c0a46a3f1c83dea0e7c61f57ee2a756e00c68",
        "kpis.csv": "a3447b8cb4fcd940726be86b58424980e38d38e051d989697b4130c5ff279344",
        "risk.csv": "00dae890fc287b2a48d02c36b6b9ea6931cf9f2f346eb8060c0c769e09065383",
        "summary.md": "c2afded0ee3f72cee928cb913b401eedac072f8e4bb5c78956a29f1ee19ee9b7",
        "traces/traces.jsonl": "c0cbb84819da85ed403eec3bf5811af33d445440c246627ad53341d6ed7ad156",
        "inputs/criteria.json": "e7d2a78b1609b5c43d2b6d648912bd4027f41020994b6f2182bab23d1e27e680",
        "inputs/effects.json": "4b57daf5c3930d2e839a71664ded9470c1d60f182011e0db771ee4501d43b317",
        "inputs/mitigations.json": "f9170f63802a05417f636bd832b02602b147a3f444bb7de4808727de9c8d910d",
        "inputs/occurrence.json": "6bf8e7fb8348fc2177d917ecb5b3d18d6364a83edc0db1938837ac25d956385b",
        "inputs/odd.json": "d34db7d731079320c1d60d06629fb6525b97ea2f9a866ae93296d3901c991356",
        "inputs/taxonomy.json": "3bb2926ca15f1240f9fe5538474574b39d8ec1f363addfe7d728a149657c7378",
    },
    "wide-taxonomy": {
        "analysis_sheet.csv": "7a2a6e527a8005d54cbfe9caaf799476415d1371607a7e9f848ea6c6d645bd0a",
        "bundle.json": "74133a9150f3f72d965a3e2dd42206961f63cfdb2a44ada8f2ca421f3d73f1a9",
        "kpis.csv": "37e32565340fad2144464118eb4cc0e7d1a04b72b7079a9139c857821cd09cab",
        "risk.csv": "f664e6ae1bcbf84afd6cfce1fbae61ca900e40158477ae49e2365b95e91a6e4f",
        "summary.md": "7097cb3aa434a12b688abdff49614d34351ad28898c0126719f2fa84d11ed083",
        "traces/traces.jsonl": "1d36372e5cc0733d4f6a6d61447b12134dc4a33c9023b549619210033b61dc3a",
        "inputs/criteria.json": "e7d2a78b1609b5c43d2b6d648912bd4027f41020994b6f2182bab23d1e27e680",
        "inputs/effects.json": "bb3f950a67e5d4ebc3594ad50284e1d2b99cf0d093c13ca9b7366657e708746b",
        "inputs/mitigations.json": "55fce7adda5ad5ffe31c957b88aaf4023ab2819469f2c9196acc828b0f6da357",
        "inputs/occurrence.json": "fd7ef4d6d9369a4cd42afaa707d233b7744f93d75ed7d301aa0cfd74e4e061bb",
        "inputs/odd.json": "c407ecd7bc495ee51caffc35b5cf1fd29185be20dcda8a41b18c28e7d216f933",
        "inputs/taxonomy.json": "d3a8dee6708fe8b2b1d6889175d4e1a2f3e59eb2ed2af252e70c00e92d17c756",
    },
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_benchmark_workload_matches_recorded_digests(name, tmp_path, monkeypatch):
    """The benchmark's inputs and outputs, made as ``bench/campaign.py``
    makes them: ``run_campaign`` with the run-0 traces, then
    ``write_bundle``.  The bundle it writes reads back by its columns to
    the bundle's own dict, and renders the summary it wrote, on tables of
    up to 705 rows."""
    monkeypatch.syspath_prepend(str(BENCH))
    import campaign
    from workloads import WORKLOADS, write_inputs

    workload = WORKLOADS[name]
    paths = write_inputs(workload, workload.default_seed, tmp_path / "inputs", SRC)
    inputs = campaign.load_inputs(paths)
    out = tmp_path / "out"
    bundle = campaign.run_campaign(inputs, workload, workload.default_seed, out)
    campaign.write_bundle(bundle, out)
    loaded = load_bundle(out)
    assert emit_markdown_summary(loaded).encode("utf-8") == (out / "summary.md").read_bytes()
    assert loaded == bundle_from_dict(bundle_to_dict(bundle))

    def digest(path: Path) -> str:
        return hashlib.sha256(read_blanked(path)).hexdigest()

    digests = {f"inputs/{path.name}": digest(path) for path in paths.values()}
    digests.update((path.relative_to(out).as_posix(), digest(path)) for path in out.rglob("*.*"))
    assert digests == WORKLOAD_DIGESTS[name]


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
