"""`FiniteGroup`, a finite group on the ids 0..order-1 with 0 the identity,
held as a multiplication table or as a frame: generator columns and a
spanning tree.  Its rows, columns, table and inverses are built from the
frame when a route first reads them, so a route that reads a few rows and
columns never pays for the n^2 table.  The structural computations are in
`fingroup`.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from .errors import NotAGroup


class FiniteGroup:
    """Finite group, kept as given and trusted, in one of two shapes:

    - `FiniteGroup(name, rows)`: the multiplication table as tuple rows.
      A raw table from outside goes through `build_from_cayley_table`,
      which checks it.
    - `FiniteGroup(name, columns=right, tree=(parent, via, walk))`, a
      frame: `right[k][x]` is x g_k for generators g_0, g_1, ... of the
      group (none for the trivial group), and each x in `walk`, which
      lists every element but 0 with each parent first, is
      parent[x] g_via[x].

    `row(x)` (the products x y) and `col(s)` (the products y s) are built
    along the tree and kept.  A frame keeps its rows in one store of
    `order` slots, filled as `row` reads them; `.table` is that store with
    its empty slots filled, sharing the rows already built.  A table-born
    group's row store is its table.  `.inverse` is built on first read."""

    __slots__ = ("name", "order", "table", "inverse", "_right", "_tree", "_rows", "_cols", "_cache")

    def __init__(self, name, table=None, columns=None, tree=None):
        self.name = str(name)
        self._right, self._tree = columns, tree
        self.order = len(table if columns is None else tree[0])
        if self.order == 0:
            raise NotAGroup("empty table")
        self._cols, self._cache = {}, {}
        if columns is None:
            self.table = self._rows = table
        else:
            self._rows = [None] * self.order
            self._rows[0] = self._cols[0] = tuple(range(self.order))

    def __getattr__(self, name):
        """`table` and `inverse`, built on first read and then kept as plain
        attributes.  A frame's table is its row store with the empty slots
        filled in one tree-order pass, the row of p g_k being the row of p
        read at the row of g_k, as (p g_k) y = p (g_k y).  A frame's inverses
        are read off the tree, (p g_k)^-1 = g_k^-1 p^-1, by the inverse of
        g_k's row."""
        if name == "table":
            parent, via, walk = self._tree
            times, rows = self._lefts()[1], self._rows
            for x in walk:
                if rows[x] is None:
                    rows[x] = times[via[x]](rows[parent[x]])
            self.table = tuple(rows)
            return self.table
        if name != "inverse":
            raise AttributeError(name)
        if self._right is None:
            self.inverse = _inverse_table(self.table)
        else:
            parent, via, walk = self._tree
            undo = [sorted(range(self.order), key=left.__getitem__) for left in self._lefts()[0]]
            inv = [0] * self.order
            for x in walk:
                inv[x] = undo[via[x]][inv[parent[x]]]
            self.inverse = tuple(inv)
        return self.inverse

    def _lefts(self):
        """(each generator's row, an itemgetter of each), found once in tree
        order: g_j (p g_k) = (g_j p) g_k."""
        lefts = self._cache.get("lefts")
        if lefts is None:
            right, (parent, via, walk) = self._right, self._tree
            rows = []
            for col in right:
                left = [col[0]] * self.order
                for y in walk:
                    left[y] = right[via[y]][left[parent[y]]]
                rows.append(left)
            lefts = self._cache["lefts"] = rows, [itemgetter(*left) for left in rows]
        return lefts

    def row(self, x):
        """The products x y; a frame builds and keeps the rows of x and its
        tree ancestors."""
        rows = self._rows
        r = rows[x]
        if r is None:
            parent, via, _ = self._tree
            times, path = self._lefts()[1], []
            while rows[x] is None:
                path.append(x)
                x = parent[x]
            r = rows[x]
            for y in reversed(path):
                r = rows[y] = times[via[y]](r)
        return r

    def col(self, s):
        """The products y s, kept; a frame reads (y s)^-1 = s^-1 y^-1 off the
        row of s^-1."""
        col = self._cols.get(s)
        if col is None:
            if self._right is None:
                col = tuple([row[s] for row in self.table])
            else:
                # s is not 0, whose column is kept from the start, so the
                # order is not 1 and these itemgetters return tuples
                inv = self.inverse
                col = itemgetter(*itemgetter(*inv)(self.row(inv[s])))(inv)
            self._cols[s] = col
        return col

    def conjugate(self, g, x):
        """g x g^-1."""
        t = self.table
        return t[t[g][x]][self.inverse[g]]

    def element_orders(self):
        """Each element's order.  One walk of the powers of an element not yet
        reached, y -> x y along its row, sets its whole cyclic subgroup:
        ord(x^k) = m / gcd(m, k)."""
        orders = self._cache.get("orders")
        if orders is None:
            n = self.order
            orders = [0] * n
            for x in range(n):
                if not orders[x]:
                    row, powers = self.row(x), [x]
                    while powers[-1]:
                        if len(powers) >= n:
                            raise NotAGroup(f"powers of element {x} never reach the identity")
                        powers.append(row[powers[-1]])
                    m = len(powers)
                    for k, y in enumerate(powers, 1):
                        orders[y] = m // gcd(m, k)
            orders = self._cache["orders"] = tuple(orders)
        return orders

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _inverse_table(table):
    try:
        return tuple(row.index(0) for row in table)
    except ValueError:
        x = next(x for x, row in enumerate(table) if 0 not in row)
        raise NotAGroup(f"element {x} has no right inverse") from None
