from collections import Counter

import subdfo


def test_all_names_resolve_once():
    missing = [name for name in subdfo.__all__ if not hasattr(subdfo, name)]
    assert missing == []
    repeated = [name for name, count in Counter(subdfo.__all__).items() if count > 1]
    assert repeated == []
