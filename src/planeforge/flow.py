"""Dinic max-flow on small integer-labelled graphs.

Just enough network-flow machinery for the predimension minimizers:
integer capacities (math.inf allowed), max_flow value, and the source
side of a minimum cut read off the final residual graph.  The source-side
extraction deliberately returns the *inclusion-minimal* cut: nodes
reachable from the source via positive residual capacity.

Each phase's BFS stops as soon as it levels the sink.  Every shallower
level is complete by then, and no node at the sink's depth or deeper lies
on a shortest augmenting path, so the phase finds the same blocking flow
as after a full BFS without walking the rest of the network.
"""

from __future__ import annotations

from collections import deque
from math import inf


class FlowNetwork:
    def __init__(self, n_nodes: int):
        self.n = n_nodes
        # edge storage: to[], cap[]; edges come in residual pairs (i ^ 1)
        self._to: list[int] = []
        self._cap: list[float] = []
        self._adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: float) -> None:
        self._adj[u].append(len(self._to))
        self._to.append(v)
        self._cap.append(cap)
        self._adj[v].append(len(self._to))
        self._to.append(u)
        self._cap.append(0)

    def _bfs(self, s: int, t: int) -> bool:
        """Level the residual graph from s until t gets its level."""
        level = self._level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self._adj[u]:
                v = self._to[eid]
                if self._cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    if v == t:
                        return True
                    queue.append(v)
        return False

    def _dfs(self, u: int, t: int, pushed: float) -> float:
        if u == t:
            return pushed
        while self._iter[u] < len(self._adj[u]):
            eid = self._adj[u][self._iter[u]]
            v = self._to[eid]
            if self._cap[eid] > 0 and self._level[v] == self._level[u] + 1:
                flowed = self._dfs(v, t, min(pushed, self._cap[eid]))
                if flowed > 0:
                    self._cap[eid] -= flowed
                    self._cap[eid ^ 1] += flowed
                    return flowed
            self._iter[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while self._bfs(s, t):
            self._iter = [0] * self.n
            while True:
                pushed = self._dfs(s, t, inf)
                if pushed == 0:
                    break
                total += pushed
        return total

    def source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph (call after max_flow)."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self._adj[u]:
                v = self._to[eid]
                if self._cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen
