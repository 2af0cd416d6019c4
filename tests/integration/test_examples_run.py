"""Every example script must run cleanly and print its headline results."""

import pathlib
import subprocess
import sys


EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    script = EXAMPLES_DIR / name
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Figure 9" in out
        assert "⟦c-chase(Ic)⟧ ∼ chase(⟦Ic⟧): True" in out
        assert "(Ada, 18k)" in out

    def test_medical_records(self):
        out = run_example("medical_records.py")
        assert "chase failed: True" in out
        assert "arrhythmia" in out

    def test_project_scheduling(self):
        out = run_example("project_scheduling.py")
        assert "Algorithm 1" in out
        assert "mira" in out

    def test_query_answering(self):
        out = run_example("query_answering.py")
        assert "holds: True" in out
        assert "certain(q, ⟦Ic⟧, M)" in out

    def test_temporal_constraints(self):
        out = run_example("temporal_constraints.py")
        assert "witnesses placed: 2" in out
        assert "chase failed: True" in out

    def test_ride_share(self):
        out = run_example("ride_share.py")
        assert "no certain answers" in out
        assert "(dana)" in out and "(errol)" in out
        assert "sharded result identical to the serial one: True" in out

    def test_event_stream(self):
        out = run_example("event_stream.py")
        assert "byte-identical snapshot: True" in out
        assert "pending after final batch: 0" in out
        assert "live view ≡ cold chase: True" in out
