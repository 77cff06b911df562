"""Union-find on a list of integer parents, and with Z2 parity constraints."""


def find(parent: list, x: int) -> int:
    """The root of ``x`` in the integer forest ``parent``, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class ParityUnionFind:
    """Union-find where each element carries a Z2 offset to its root.

    ``union(x, y, rel)`` enforces parity(x) + parity(y) = rel; it returns
    False when that contradicts earlier constraints (the constraint graph
    has an odd cycle).
    """

    def __init__(self):
        self.parent = {}
        self.offset = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.offset[x] = 0

    def find(self, x):
        self.add(x)
        path = []
        root = x
        while self.parent[root] != root:
            path.append(root)
            root = self.parent[root]
        par = 0
        for node in reversed(path):
            par ^= self.offset[node]
            self.parent[node] = root
            self.offset[node] = par
        return root, self.offset[x]

    def union(self, x, y, rel: int) -> bool:
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return (px ^ py) == rel
        self.parent[ry] = rx
        self.offset[ry] = px ^ py ^ rel
        return True
