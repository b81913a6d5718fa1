import pytest


def _closure_generates(g, s) -> bool:
    """S generates g iff the walk from the identity through group.add reaches every element.

    A BFS that shares no code with the subset search: inverses arise as
    iterated sums in a finite group, so adding elements of S alone suffices.
    """
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [b for b in {g.add(a, e) for a in frontier for e in s} if b not in seen]
        seen.update(frontier)
    return len(seen) == g.order


@pytest.fixture
def closure_oracle():
    """The independent oracle for whether a connection set generates its group."""
    return _closure_generates
