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


def test_scipy_linalg_loads_only_with_the_first_lapack_call():
    # A fresh interpreter: the package and rsdfo2 need no SciPy, and the
    # first rsdfoq run (a QR and a saddle solve) imports scipy.linalg.
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import subdfo
from subdfo import SolverConfig, make_problem, run_rsdfo2, run_rsdfoq
assert "scipy.linalg" not in sys.modules, "after import"
rec = run_rsdfo2(make_problem("sphere", 10), SolverConfig(p=3, seed=0, max_evals=60))
assert rec.total_evals == 60, rec
assert "scipy.linalg" not in sys.modules, "after run_rsdfo2"
run_rsdfoq(make_problem("sphere", 10), SolverConfig(p=3, seed=0, max_evals=30))
assert "scipy.linalg" in sys.modules, "after run_rsdfoq"
"""
    out = subprocess.run(
        [sys.executable, "-c", script, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
