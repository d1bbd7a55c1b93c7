import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import subdfo

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_names_resolve_once():
    missing = [name for name in subdfo.__all__ if not hasattr(subdfo, name)]
    assert missing == []
    repeated = [name for name, count in Counter(subdfo.__all__).items() if count > 1]
    assert repeated == []


def test_all_matches_readme_public_api():
    text = README.read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert sorted(documented) == sorted(subdfo.__all__)


def test_no_solver_imports_scipy(tmp_path):
    # A fresh interpreter: every solver, and persisting and profiling their
    # records, run on NumPy alone; the QR and saddle solves of rsdfoq call
    # the LAPACK that NumPy ships.
    script = """
import sys
sys.path.insert(0, sys.argv[1])
from subdfo import SolverConfig, make_problem, run_rsdfo, run_rsdfo2, run_rsdfoq
from subdfo.bench import profiles_from_records, write_store
records = [
    run(make_problem("sphere", 10), SolverConfig(p=3, seed=0, max_evals=60))
    for run in (run_rsdfo, run_rsdfo2, run_rsdfoq)
]
assert [r.total_evals for r in records] == [60, 60, 60], records
write_store(records, sys.argv[2])
profiles_from_records(records, 1e-1, "data")
profiles_from_records(records, 1e-1, "perf")
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    out = subprocess.run(
        [sys.executable, "-c", script, str(SRC), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
