"""Union-find, plain and with Z2 parity constraints."""


class UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


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
