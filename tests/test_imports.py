"""A fresh interpreter loads numpy only when a run first draws a ghost,
and never loads the dataclass machinery.

numpy builds the ghost stream of a scenario with ``ghost_rate > 0``.
Importing the package, validating a taxonomy, re-rendering a report and
running a ghost-free campaign never need it, so none of them loads it.
The records are plain classes on :class:`sotifkit.records.Record`, so
importing the package generates no code: it loads neither ``dataclasses``
nor ``inspect``, which ``dataclasses`` imports.  Each check runs in its
own interpreter, because this test session has these modules loaded long
before.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from sotifkit.cli import EXIT_OK
from sotifkit.fixtures import fixture_path

from conftest import run_fresh_python

GOLDEN = Path(__file__).parent / "golden"


def loaded_after(statements: str, module: str = "numpy") -> bool:
    """Whether ``module`` is in ``sys.modules`` once ``statements`` have run
    in a fresh interpreter."""
    done = run_fresh_python("-c", f"{statements}\nimport sys\nprint({module!r} in sys.modules)")
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


def cli_main(*args: str | Path) -> str:
    """Statements that call ``cli.main(args)`` and assert that it exits 0."""
    return (
        "from sotifkit import cli\n"
        f"assert cli.main({[str(arg) for arg in args]!r}) == {EXIT_OK}"
    )


def campaign(effects: Path, out: Path) -> str:
    """Statements that run the fixture campaign with ``effects`` into ``out``."""
    args = ["run", "--effects", effects, "--out", out, "--runs", "5", "--no-gate"]
    for flag in ("odd", "taxonomy", "occurrence", "criteria", "mitigations"):
        args += [f"--{flag}", fixture_path(f"{flag}.json")]
    return cli_main(*args)


@pytest.fixture
def ghost_free_effects(tmp_path) -> Path:
    """The fixture effects with every ``ghost_rate`` set to 0."""
    effects = json.loads(fixture_path("effects.json").read_text(encoding="utf-8"))
    for table in ("by_leaf", "by_category"):
        for overrides in effects[table].values():
            overrides["ghost_rate"] = 0.0
    path = tmp_path / "effects.json"
    path.write_text(json.dumps(effects), encoding="utf-8")
    return path


@pytest.mark.parametrize("statements", ["import sotifkit", "import sotifkit.cli"])
def test_import_loads_no_numpy(statements):
    assert not loaded_after(statements)


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
@pytest.mark.parametrize("statements", ["import sotifkit", "import sotifkit.cli"])
def test_import_generates_no_record_code(statements, module):
    assert not loaded_after(statements, module)


def test_taxonomy_validate_loads_no_numpy():
    assert not loaded_after(cli_main("taxonomy", "validate", fixture_path("taxonomy.json")))


def test_report_loads_no_numpy():
    assert not loaded_after(cli_main("report", GOLDEN))


def test_ghost_free_run_loads_no_numpy(ghost_free_effects, tmp_path):
    assert not loaded_after(campaign(ghost_free_effects, tmp_path / "out"))


def test_run_with_ghosts_loads_numpy(tmp_path):
    assert loaded_after(campaign(fixture_path("effects.json"), tmp_path / "out"))
