"""Each rule fires on its known-bad fixture and stays quiet on the good one."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_file

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

RULES = ["TDX001", "TDX002", "TDX003", "TDX004", "TDX005", "TDX006"]


def fixture(code: str, kind: str) -> Path:
    return FIXTURES / f"{code.lower()}_{kind}.py"


@pytest.mark.parametrize("code", RULES)
def test_bad_fixture_fires_exactly_its_rule(code):
    findings = analyze_file(fixture(code, "bad"))
    assert findings, f"{code} did not fire on its bad fixture"
    assert {item.rule for item in findings} == {code}


@pytest.mark.parametrize("code", RULES)
def test_good_fixture_is_clean_under_every_rule(code):
    assert analyze_file(fixture(code, "good")) == []


@pytest.mark.parametrize("code", RULES)
def test_cli_exits_nonzero_on_bad_fixture(code):
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(fixture(code, "bad"))],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 1
    assert code in result.stdout


def test_cli_exits_zero_on_good_fixtures():
    argv = [sys.executable, "-m", "repro.analysis"]
    argv += [str(fixture(code, "good")) for code in RULES]
    result = subprocess.run(argv, capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stdout


def test_select_limits_to_one_rule():
    # tdx005_bad also contains plain functions; selecting TDX006 there
    # must come back empty.
    assert analyze_file(fixture("TDX005", "bad"), select=["TDX006"]) == []
    assert analyze_file(fixture("TDX005", "bad"), select=["TDX005"])


def test_salted_hash_in_null_naming_module_is_reported(tmp_path):
    # Skolem null names cross processes and persist in the chase cache
    # and the session spool, so repro.chase.nulls is a persist module.
    path = tmp_path / "repro" / "chase" / "nulls.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "def skolem_names(binding):\n"
        "    return 'N' + format(hash(binding) & 0xFFFF, 'x')\n"
    )
    findings = analyze_file(path)
    assert [item.rule for item in findings] == ["TDX005"]
    assert "repro.chase.nulls" in findings[0].message
