import graphlets


def test_all_is_sorted_unique_and_resolves():
    names = graphlets.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(graphlets, n)] == []
