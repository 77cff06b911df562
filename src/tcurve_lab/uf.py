"""Union-find on a list of integer parents."""


def join(parent: list, pairs) -> list:
    """Join the two ends of every pair of ``pairs`` in the integer forest
    ``parent``, halving paths, and return ``parent`` flattened: each entry
    its root.  The smaller root becomes the root of both, so no entry
    exceeds its index (given that none did before), each root is the
    smallest element of its set, and one pass in index order flattens.  A
    joined root takes the int object of the root's own entry."""
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = parent[x]
        elif y < x:
            parent[x] = parent[y]
    for x, p in enumerate(parent):
        parent[x] = parent[p]
    return parent
