import re
from collections import Counter
from pathlib import Path

import subdfo

README = Path(__file__).resolve().parents[1] / "README.md"


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
