from mapalg.memo import clear_caches, memoised


def test_none_result_is_cached():
    """A call that returns None runs once per argument tuple, and
    ``clear_caches`` empties its table like any other."""
    calls = []

    @memoised
    def record(*args):
        calls.append(args)

    assert record(1, "a") is None
    assert record(1, "a") is None
    assert record(2) is None
    assert calls == [(1, "a"), (2,)]
    assert record.table == {(1, "a"): None, (2,): None}
    clear_caches()
    assert record.table == {}
    record(1, "a")
    assert calls == [(1, "a"), (2,), (1, "a")]
