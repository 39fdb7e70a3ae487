import smddc


def test_all_names_resolve_and_are_sorted():
    # a deleted function leaves a stale entry here that only `from smddc import *` would notice
    missing = [name for name in smddc.__all__ if not hasattr(smddc, name)]
    assert missing == []
    assert smddc.__all__ == sorted(smddc.__all__)
