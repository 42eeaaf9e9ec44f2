import pytest

from mapalg.memo import clear_caches, clear_check_tables, memoised, new_table


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


def test_check_tables_are_emptied_alone():
    """``clear_check_tables`` empties the tables made with lifetime
    ``check`` and leaves the process tables; ``clear_caches`` empties both."""
    process, check = new_table(), new_table("check")

    @memoised(lifetime="check")
    def double(x):
        return 2 * x

    process[1] = check[1] = 1
    assert double(3) == 6 and double.table == {(3,): 6}
    clear_check_tables()
    assert process == {1: 1} and check == {} and double.table == {}
    check[1] = 1
    clear_caches()
    assert process == {} and check == {}


def test_unknown_lifetime_is_refused():
    with pytest.raises(ValueError, match="lifetime"):
        new_table("run")
    with pytest.raises(ValueError, match="lifetime"):
        memoised(lambda: None, lifetime="session")
