"""The stdlib router against networkx, route for route.

``Network.path_between`` without a provider runs the module's own
bidirectional Dijkstra over its adjacency dict. It must pick exactly the
route ``nx.shortest_path(weight=...)`` picks on an ``nx.Graph`` built by
the same calls, ties included. Weights come from {1, 2, 3}, so ties are
common, and the graphs carry parallel links and sequences of fails,
restores and flaps (a fail, then a restore), whose re-adds move an edge
to the end of both endpoints' adjacency.
networkx is not a dependency of the package; the oracle runs wherever it
happens to be installed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.network import Network, NetworkError
from repro.sim.engine import Simulator

nx = pytest.importorskip("networkx")


class Mirror:
    """A network and the ``nx.Graph`` its routing used to keep."""

    def __init__(self, num_nodes: int) -> None:
        self.network = Network(Simulator(seed=1))
        self.graph = nx.Graph()
        self.nodes = [self.network.add_router(f"n{i}")
                      for i in range(num_nodes)]
        self.graph.add_nodes_from(n.name for n in self.nodes)
        self.links = []

    def connect(self, i: int, j: int, weight: int) -> None:
        a, b = self.nodes[i], self.nodes[j]
        link = self.network.connect(a, b, 1e9, 0.001, routing_weight=weight)
        self.graph.add_edge(a.name, b.name, weight=weight, link=link)
        self.links.append(link)

    def fail(self, link) -> None:
        self.network.fail_link(link)
        if self.graph.has_edge(link.a.name, link.b.name):
            self.graph.remove_edge(link.a.name, link.b.name)

    def restore(self, link) -> None:
        self.network.restore_link(link)
        self.graph.add_edge(link.a.name, link.b.name,
                            weight=link.routing_weight, link=link)

    def assert_same_routes(self) -> None:
        for a in self.nodes:
            for b in self.nodes:
                if a is b:
                    continue
                try:
                    names = nx.shortest_path(self.graph, a.name, b.name,
                                             weight="weight")
                except nx.NetworkXNoPath:
                    with pytest.raises(NetworkError):
                        self.network.path_between(a, b)
                    continue
                expected = [self.graph.edges[u, v]["link"].name
                            for u, v in zip(names, names[1:])]
                path = self.network.path_between(a, b)
                assert [d.link.name for d in path.directions] == expected, \
                    f"{a.name}->{b.name}"
                assert path.directions[0].sender is a
                assert path.directions[-1].receiver is b


@st.composite
def scenarios(draw):
    num_nodes = draw(st.integers(min_value=3, max_value=8))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    # Pairs may repeat: a repeat is a parallel link replacing the first.
    edges = draw(st.lists(
        st.tuples(node, node, st.sampled_from((1, 2, 3)))
        .filter(lambda e: e[0] != e[1]),
        min_size=num_nodes - 1, max_size=16))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(("fail", "restore", "flap")),
                  st.integers(min_value=0, max_value=len(edges) - 1)),
        min_size=1, max_size=8))
    return num_nodes, edges, ops


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_routes_match_networkx(scenario):
    num_nodes, edges, ops = scenario
    mirror = Mirror(num_nodes)
    for i, j, weight in edges:
        mirror.connect(i, j, weight)
    mirror.assert_same_routes()
    for op, index in ops:
        link = mirror.links[index]
        if op != "restore":
            mirror.fail(link)
        if op != "fail":
            # A flap (fail, then restore) moves the link to the back.
            mirror.restore(link)
        mirror.assert_same_routes()


def test_a_restore_moves_the_tie_break():
    # A square of equal weights: n3 reaches n0 by n1 or by n2 at the
    # same cost. Restoring n0-n1 appends it to the back of n0's and
    # n1's adjacency, and the tie goes the other way, in networkx and
    # here alike.
    mirror = Mirror(4)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        mirror.connect(i, j, 1)
    far, home = mirror.nodes[3], mirror.nodes[0]
    assert mirror.network.path_between(far, home).describe() == \
        "n3 -> n1 -> n0"
    mirror.fail(mirror.links[0])
    mirror.restore(mirror.links[0])
    mirror.assert_same_routes()
    assert mirror.network.path_between(far, home).describe() == \
        "n3 -> n2 -> n0"
