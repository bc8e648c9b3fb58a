"""Network topology: vertices (processors/switches) and schedulable links.

Modeling choices, mirroring Sinnen & Sousa's topology graph:

- A **full-duplex** cable between two vertices becomes *two* directed
  :class:`Link` resources, one per direction, each independently schedulable.
- A **half-duplex** cable becomes *one* :class:`Link` used by both directions
  (contention between the directions falls out naturally).
- A **bus** (hyperedge ``H``) is one :class:`Link` shared by all pairs of its
  member vertices.

A :class:`Route` is the ordered list of links a communication traverses; the
edge-scheduling engine books time slots on each of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Literal, NamedTuple, Sequence, TypeAlias

from repro.exceptions import TopologyError
from repro.types import LinkId, VertexId

if TYPE_CHECKING:
    # Interop only: ``to_networkx`` imports it when called, so neither
    # ``import repro`` nor any scheduling, validation or sweep loads it.
    import networkx as nx

    # Annotations only: the fabrics module imports this one.
    from repro.network.fabrics import FatTreePlan, LeafSpinePlan, TorusPlan

VertexKind = Literal["processor", "switch"]
LinkKind = Literal["ptp", "bus"]


@dataclass(frozen=True, slots=True)
class Vertex:
    """A network vertex: a processor (with processing speed) or a switch."""

    vid: VertexId
    kind: VertexKind
    speed: float = 1.0  # processing speed; meaningful for processors only
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind == "processor" and self.speed <= 0:
            raise TopologyError(f"processor {self.vid} has non-positive speed {self.speed}")

    @property
    def is_processor(self) -> bool:
        return self.kind == "processor"


@dataclass(frozen=True, slots=True)
class Link:
    """A schedulable communication resource with a transfer speed.

    ``src``/``dst`` identify the direction for point-to-point links; for
    half-duplex and bus links the same :class:`Link` object is reachable from
    several (ordered) vertex pairs and ``src``/``dst`` record the canonical
    pair used when the link was created.
    """

    lid: LinkId
    speed: float
    src: VertexId
    dst: VertexId
    kind: LinkKind = "ptp"
    members: tuple[VertexId, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise TopologyError(f"link {self.lid} has non-positive speed {self.speed}")


#: An ordered sequence of links traversed by one communication.
Route: TypeAlias = list[Link]


class RouteStructure(NamedTuple):
    """What a route search needs to know of the topology's shape, per vertex.

    Every list is indexed by vertex id (see
    :meth:`NetworkTopology.route_structure`).
    """

    #: the one vertex every out-link leads to, or ``-1``
    sole: list[VertexId]
    #: the sorted ``(link, head)`` choices whose head is not a dead end from
    #: the vertex (``sole[head] != vertex``)
    transit: list[list[tuple[Link, VertexId]]]
    #: the single ``(link, head)`` out-choice of a vertex with exactly one
    #: out-choice and one in-choice, else ``None``
    uplink: list[tuple[Link, VertexId] | None]
    #: the single ``(link, tail)`` in-choice of the same vertices, else
    #: ``None``
    downlink: list[tuple[Link, VertexId] | None]


@dataclass
class NetworkTopology:
    """Mutable-by-construction network graph; schedulers treat it as frozen."""

    name: str = "network"
    _vertices: dict[VertexId, Vertex] = field(default_factory=dict)
    _links: dict[LinkId, Link] = field(default_factory=dict)
    #: vertex -> list of (link, neighbour vertex) choices for routing
    _adj: dict[VertexId, list[tuple[Link, VertexId]]] = field(default_factory=dict)
    #: lazily built ``_adj`` with every choice list sorted by link id
    #: (deterministic routing order); invalidated by any topology mutation
    _sorted_adj: dict[VertexId, list[tuple[Link, VertexId]]] | None = field(
        default=None, repr=False
    )
    #: lazily built :class:`RouteStructure`; same lifetime as ``_sorted_adj``
    _structure: RouteStructure | None = field(default=None, repr=False)
    #: lazily built :meth:`link_heads` table; same lifetime as ``_sorted_adj``
    _heads: dict[tuple[VertexId, LinkId], tuple[VertexId, ...]] | None = field(
        default=None, repr=False
    )
    #: ``(src, dst) -> Route`` memo filled by :func:`repro.network.routing
    #: .bfs_route`; purely topological, so it shares one entry per processor
    #: pair across every engine and is invalidated by any topology mutation
    #: (same lifetime as ``_sorted_adj``)
    _route_table: dict[tuple[VertexId, VertexId], Route] | None = field(
        default=None, repr=False
    )
    #: the structure a fabric builder (:mod:`repro.network.fabrics`) laid
    #: out; dropped by any mutation, because a structural change voids the
    #: closed forms the plan describes
    fabric_plan: FatTreePlan | LeafSpinePlan | TorusPlan | None = field(
        default=None, repr=False
    )
    _next_vid: int = 0
    _next_lid: int = 0

    # -- construction -------------------------------------------------------

    def _invalidate_routing(self) -> None:
        """Drop every route-derived cache after a topology mutation.

        This is the single seam all mutators go through: the sorted
        adjacency, the route structure, the link-heads table, the
        ``(src, dst)`` route table and any fabric plan.
        """
        self._sorted_adj = None
        self._structure = None
        self._heads = None
        self._route_table = None
        self.fabric_plan = None

    def add_processor(self, speed: float = 1.0, name: str = "") -> Vertex:
        v = Vertex(self._next_vid, "processor", float(speed), name or f"P{self._next_vid}")
        self._vertices[v.vid] = v
        self._adj[v.vid] = []
        self._invalidate_routing()
        self._next_vid += 1
        return v

    def add_switch(self, name: str = "") -> Vertex:
        v = Vertex(self._next_vid, "switch", 1.0, name or f"S{self._next_vid}")
        self._vertices[v.vid] = v
        self._adj[v.vid] = []
        self._invalidate_routing()
        self._next_vid += 1
        return v

    def _require_vertex(self, vid: VertexId) -> Vertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise TopologyError(f"unknown vertex id {vid}") from None

    def connect(
        self,
        u: VertexId | Vertex,
        v: VertexId | Vertex,
        speed: float = 1.0,
        *,
        duplex: Literal["full", "half"] = "full",
        name: str = "",
    ) -> tuple[Link, ...]:
        """Create a cable between ``u`` and ``v``.

        Full duplex returns ``(link u->v, link v->u)``; half duplex returns a
        single shared link.
        """
        uid = u.vid if isinstance(u, Vertex) else u
        vid = v.vid if isinstance(v, Vertex) else v
        self._require_vertex(uid)
        self._require_vertex(vid)
        if uid == vid:
            raise TopologyError(f"cannot connect vertex {uid} to itself")
        self._invalidate_routing()
        if duplex == "full":
            fwd = Link(self._next_lid, float(speed), uid, vid, "ptp", name=name or f"L{self._next_lid}")
            self._next_lid += 1
            bwd = Link(self._next_lid, float(speed), vid, uid, "ptp", name=name or f"L{self._next_lid}")
            self._next_lid += 1
            self._links[fwd.lid] = fwd
            self._links[bwd.lid] = bwd
            self._adj[uid].append((fwd, vid))
            self._adj[vid].append((bwd, uid))
            return (fwd, bwd)
        if duplex == "half":
            link = Link(self._next_lid, float(speed), uid, vid, "ptp", name=name or f"L{self._next_lid}")
            self._next_lid += 1
            self._links[link.lid] = link
            self._adj[uid].append((link, vid))
            self._adj[vid].append((link, uid))
            return (link,)
        raise TopologyError(f"unknown duplex mode {duplex!r}")

    def add_bus(self, members: Sequence[VertexId | Vertex], speed: float = 1.0, name: str = "") -> Link:
        """Create a bus (hyperedge): one shared link among all ``members``."""
        ids = tuple(m.vid if isinstance(m, Vertex) else m for m in members)
        if len(ids) < 2:
            raise TopologyError(f"a bus needs at least two members, got {len(ids)}")
        if len(set(ids)) != len(ids):
            raise TopologyError("bus member list contains duplicates")
        for vid in ids:
            self._require_vertex(vid)
        self._invalidate_routing()
        link = Link(
            self._next_lid, float(speed), ids[0], ids[1], "bus", members=ids,
            name=name or f"BUS{self._next_lid}",
        )
        self._next_lid += 1
        self._links[link.lid] = link
        for vid in ids:
            for other in ids:
                if other != vid:
                    self._adj[vid].append((link, other))
        return link

    # -- queries ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def vertex(self, vid: VertexId) -> Vertex:
        return self._require_vertex(vid)

    def link(self, lid: LinkId) -> Link:
        try:
            return self._links[lid]
        except KeyError:
            raise TopologyError(f"unknown link id {lid}") from None

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    def processors(self) -> list[Vertex]:
        return [v for v in self._vertices.values() if v.kind == "processor"]

    def switches(self) -> list[Vertex]:
        return [v for v in self._vertices.values() if v.kind == "switch"]

    def out_links(self, vid: VertexId) -> list[tuple[Link, VertexId]]:
        """Routing choices from ``vid``: (link, neighbour) pairs."""
        self._require_vertex(vid)
        return self._adj[vid]

    def sorted_out_links(self, vid: VertexId) -> list[tuple[Link, VertexId]]:
        """:meth:`out_links` sorted by link id (the routing tie-break order).

        Built once for the whole topology on first use and invalidated by any
        mutation, so route searches stop re-sorting adjacency lists on every
        frontier pop / relaxation.
        """
        cache = self._sorted_adj
        if cache is None:
            cache = {
                v: sorted(choices, key=lambda lv: lv[0].lid)
                for v, choices in self._adj.items()
            }
            self._sorted_adj = cache
        try:
            return cache[vid]
        except KeyError:
            raise TopologyError(f"unknown vertex id {vid}") from None

    def link_heads(self) -> dict[tuple[VertexId, LinkId], tuple[VertexId, ...]]:
        """``(vertex, link id) -> `` the sorted vertices that link leads to
        from ``vertex``: :meth:`out_links` of every vertex, indexed by link.

        A full-duplex link leads to its one head, a half-duplex cable to the
        other end, a bus to every other member.  Built once on first use
        and invalidated by any mutation, like :meth:`sorted_out_links`.
        """
        table = self._heads
        if table is None:
            heads: dict[tuple[VertexId, LinkId], set[VertexId]] = {}
            for vid, choices in self._adj.items():
                for link, v in choices:
                    heads.setdefault((vid, link.lid), set()).add(v)
            table = {key: tuple(sorted(vs)) for key, vs in heads.items()}
            self._heads = table
        return table

    def sole_out_neighbours(self) -> list[VertexId]:
        """Per-vertex table: the one vertex every out-link leads to, or ``-1``.

        Indexed by vertex id.  A vertex whose only neighbour is ``u`` — a
        processor hanging off one switch, a 2-member bus, a degree-1 switch —
        is a dead end for a route search relaxing it from ``u``: no route can
        pass through it.  Part of :meth:`route_structure`.
        """
        return self.route_structure().sole

    def route_structure(self) -> RouteStructure:
        """The per-vertex tables the modified-routing searches read.

        Built in one pass on first use and invalidated by any mutation, like
        :meth:`sorted_out_links`.  Besides the sole-neighbour table it holds
        each vertex's *transit* choices — the sorted out-links less those
        into a dead end from the vertex, which no route relaxes — and, for
        a vertex with exactly one out-choice and one in-choice (a processor
        on one full- or half-duplex cable or a 2-member bus), that single
        choice each way.  Out- and in-choices are ``(link, neighbour)``
        entries of the adjacency, so a half-duplex cable or a bus counts
        once per neighbour, as routing sees it.
        """
        table = self._structure
        if table is None:
            n = self._next_vid
            sole: list[VertexId] = [-1] * n
            ins: list[list[tuple[Link, VertexId]]] = [[] for _ in range(n)]
            for vid, choices in self._adj.items():
                nbrs = {v for _, v in choices}
                if len(nbrs) == 1:
                    sole[vid] = nbrs.pop()
                for link, v in choices:
                    ins[v].append((link, vid))
            transit: list[list[tuple[Link, VertexId]]] = [[] for _ in range(n)]
            uplink: list[tuple[Link, VertexId] | None] = [None] * n
            downlink: list[tuple[Link, VertexId] | None] = [None] * n
            for vid in self._adj:
                choices = self.sorted_out_links(vid)
                transit[vid] = [lv for lv in choices if sole[lv[1]] != vid]
                if len(choices) == 1 and len(ins[vid]) == 1:
                    uplink[vid] = choices[0]
                    downlink[vid] = ins[vid][0]
            table = RouteStructure(sole, transit, uplink, downlink)
            self._structure = table
        return table

    def route_table(self) -> dict[tuple[VertexId, VertexId], Route]:
        """The shared ``(src, dst) -> Route`` memo for minimal routing.

        Lazily created on first use and dropped (like :meth:`sorted_out_links`'
        cache) by any topology mutation.  :func:`repro.network.routing
        .bfs_route` fills it, so every engine scheduling on this topology —
        BA, mapping simulation, BBSA fallback paths — computes each processor
        pair's minimal route at most once per topology lifetime.
        """
        table = self._route_table
        if table is None:
            table = {}
            self._route_table = table
        return table

    def mean_link_speed(self) -> float:
        """The paper's ``MLS``: average transfer speed over all links."""
        if not self._links:
            raise TopologyError(f"topology {self.name!r} has no links")
        return sum(l.speed for l in self._links.values()) / len(self._links)

    def mean_processor_speed(self) -> float:
        procs = self.processors()
        if not procs:
            raise TopologyError(f"topology {self.name!r} has no processors")
        return sum(p.speed for p in procs) / len(procs)

    # -- interoperability ---------------------------------------------------

    def to_networkx(self) -> nx.MultiDiGraph:
        """Routing-graph view: one directed arc per (link, direction) choice."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for v in self._vertices.values():
            g.add_node(v.vid, kind=v.kind, speed=v.speed, label=v.name)
        for vid, choices in self._adj.items():
            for link, nbr in choices:
                g.add_edge(vid, nbr, key=link.lid, speed=link.speed, kind=link.kind)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkTopology(name={self.name!r}, processors={len(self.processors())}, "
            f"switches={len(self.switches())}, links={self.num_links})"
        )
