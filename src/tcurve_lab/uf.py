"""Union-find on a list of integer parents."""


def find(parent: list, x: int) -> int:
    """The root of ``x`` in the integer forest ``parent``, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x
