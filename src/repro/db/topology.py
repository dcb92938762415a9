"""Network topology and the pluggable message cost model.

The paper models the network as a zero-latency LAN switch: only the
per-end MsgCPU cost matters (Section 4).  Production traffic crosses
datacenters, where each message additionally pays *wire latency* -- and
commit-protocol choice matters most exactly there, because every voting
or decision round trip now costs milliseconds (Gray & Lamport count
protocols by message delays for this reason).

This module layers that in without touching the paper's model:

- :class:`NetworkTopology` is the *spec*: site -> datacenter placement
  plus a per-link one-way latency/jitter/loss description, parseable
  from a CLI string (``uniform``, ``dcs:2x4:rtt_ms=40``, or an explicit
  ``matrix:...`` form).  ``uniform`` is the paper-faithful default.
- :class:`CostModel` is the protocol :meth:`repro.db.network.Network.send`
  consults per remote message for wire delay and stochastic wire loss.
- :class:`LanSwitch` implements the paper's switch (zero delay, no
  loss); runs configured with the ``uniform`` topology are byte-identical
  to runs with no topology at all.
- :class:`WanTopology` realizes a multi-datacenter spec: intra-DC links
  stay cheap, cross-DC links pay ``rtt_ms / 2`` one-way (plus optional
  exponential jitter and loss), with every draw taken from a dedicated
  per-link RNG substream so trajectories are reproducible and soak
  checkpoints capture the streams automatically.

The cost model *composes with* the fault injector: topology latency and
loss apply first (the healthy wire), then the injector's per-kind delay
and loss hooks stack on top (the unhealthy one).
"""

from __future__ import annotations

import dataclasses
import enum
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import RandomStreams

#: canonical spelling of the accepted CLI forms (quoted by parse errors).
_SPEC_FORMS = ("'uniform', "
               "'dcs:<D>x<S>:rtt_ms=<ms>[:intra_ms=<ms>]"
               "[:jitter_ms=<ms>][:loss=<p>]', or "
               "'matrix:<ms>,<ms>,..;..[:jitter_ms=<ms>][:loss=<p>]'")


class TopologyKind(enum.Enum):
    """How sites are placed and what their links cost."""

    #: the paper's zero-latency LAN switch (every site in one room).
    UNIFORM = "uniform"
    #: ``D`` datacenters of ``S`` sites each; cross-DC links pay
    #: ``rtt_ms / 2`` one-way, intra-DC links pay ``intra_ms``.
    DCS = "dcs"
    #: explicit site x site one-way latency matrix (each site is its
    #: own "datacenter": every remote message counts as cross-DC).
    MATRIX = "matrix"


def parse_options(segments: list[str],
                  allowed: tuple[str, ...]) -> dict[str, float]:
    """``key=<number>`` spec segments as a dict; a key outside
    ``allowed`` raises ValueError listing the accepted ones.  Shared by
    the topology and fault-plan grammars."""
    options: dict[str, float] = {}
    for segment in segments:
        key, sep, value = segment.partition("=")
        if not sep or key not in allowed:
            raise ValueError(
                f"unknown option {segment!r} (accepted: "
                + ", ".join(f"{name}=<v>" for name in allowed) + ")")
        options[key] = float(value)
    return options


@dataclasses.dataclass(frozen=True)
class NetworkTopology:
    """Site placement plus per-link wire costs (CLI syntax in :meth:`parse`).

    The spec is resolved against a concrete ``num_sites`` when a system
    is built (:meth:`placement` / :meth:`latency_matrix`);
    :meth:`check_num_sites` rejects mismatched configurations early.
    """

    kind: TopologyKind = TopologyKind.UNIFORM
    #: dcs: number of datacenters.
    num_dcs: int = 1
    #: dcs: sites per datacenter (``num_dcs * sites_per_dc`` must equal
    #: the model's ``num_sites``).
    sites_per_dc: int = 1
    #: dcs: cross-datacenter round-trip time; one-way latency is half.
    rtt_ms: float = 0.0
    #: dcs: one-way latency of intra-DC links (the cheap local fabric).
    intra_ms: float = 0.0
    #: mean exponential jitter added per cross-DC message (0 = none).
    jitter_ms: float = 0.0
    #: per-message loss probability on cross-DC links (0 = reliable).
    loss_prob: float = 0.0
    #: matrix: one-way latency in ms, row = sender site, col = receiver.
    matrix: tuple[tuple[float, ...], ...] = ()

    @property
    def is_uniform(self) -> bool:
        return self.kind is TopologyKind.UNIFORM

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {self.jitter_ms}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(
                f"loss_prob must be in [0, 1), got {self.loss_prob}")
        if self.kind is TopologyKind.DCS:
            if self.num_dcs < 1 or self.sites_per_dc < 1:
                raise ValueError(
                    f"dcs topology needs num_dcs >= 1 and sites_per_dc "
                    f">= 1, got {self.num_dcs}x{self.sites_per_dc}")
            if self.rtt_ms < 0 or self.intra_ms < 0:
                raise ValueError("latencies must be >= 0")
        elif self.kind is TopologyKind.MATRIX:
            size = len(self.matrix)
            if size == 0:
                raise ValueError("matrix topology needs at least one row")
            for row in self.matrix:
                if len(row) != size:
                    raise ValueError(
                        f"latency matrix must be square, got a "
                        f"{len(row)}-wide row in a {size}-row matrix")
                if any(value < 0 for value in row):
                    raise ValueError("latencies must be >= 0")
            for site in range(size):
                if self.matrix[site][site] != 0.0:
                    raise ValueError(
                        f"matrix diagonal must be 0 (site {site} cannot "
                        f"pay wire latency to itself)")

    def check_num_sites(self, num_sites: int) -> None:
        """Reject a spec that cannot cover ``num_sites`` sites."""
        if self.kind is TopologyKind.DCS:
            expected = self.num_dcs * self.sites_per_dc
            if expected != num_sites:
                raise ValueError(
                    f"topology places {self.num_dcs}x{self.sites_per_dc} "
                    f"= {expected} sites but the model has "
                    f"num_sites={num_sites}")
        elif self.kind is TopologyKind.MATRIX:
            if len(self.matrix) != num_sites:
                raise ValueError(
                    f"latency matrix covers {len(self.matrix)} sites but "
                    f"the model has num_sites={num_sites}")

    # ------------------------------------------------------------------
    # Resolution against a concrete site count
    # ------------------------------------------------------------------
    def placement(self, num_sites: int) -> tuple[int, ...] | None:
        """Site -> datacenter map (None for the uniform switch)."""
        if self.kind is TopologyKind.UNIFORM:
            return None
        self.check_num_sites(num_sites)
        if self.kind is TopologyKind.DCS:
            return tuple(site // self.sites_per_dc
                         for site in range(num_sites))
        return tuple(range(num_sites))

    def latency_matrix(self, num_sites: int,
                       ) -> tuple[tuple[float, ...], ...]:
        """One-way base latency per (sender, receiver) site pair."""
        self.check_num_sites(num_sites)
        if self.kind is TopologyKind.MATRIX:
            return self.matrix
        placement = self.placement(num_sites)
        if placement is None:
            return tuple(tuple(0.0 for _ in range(num_sites))
                         for _ in range(num_sites))
        one_way = self.rtt_ms / 2.0
        return tuple(
            tuple(0.0 if src == dst
                  else one_way if placement[src] != placement[dst]
                  else self.intra_ms
                  for dst in range(num_sites))
            for src in range(num_sites))

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "NetworkTopology":
        """Parse the CLI syntax.

        - ``uniform`` -- the paper's zero-latency switch (the default).
        - ``dcs:<D>x<S>:rtt_ms=<ms>[:intra_ms=<ms>][:jitter_ms=<ms>]``
          ``[:loss=<p>]`` -- ``D`` datacenters of ``S`` sites, e.g.
          ``dcs:2x4:rtt_ms=40``.
        - ``matrix:<row>;<row>;..`` with comma-separated one-way
          latencies, e.g. ``matrix:0,20;20,0``; optional ``jitter_ms=``
          / ``loss=`` segments may follow the matrix.
        """
        parts = text.strip().lower().split(":")
        kind = parts[0]
        try:
            if kind == "uniform" and len(parts) == 1:
                return cls()
            if kind == "dcs" and len(parts) >= 3:
                dims = parts[1].split("x")
                if len(dims) != 2:
                    raise ValueError(
                        f"expected <D>x<S> datacenter dimensions, "
                        f"got {parts[1]!r}")
                options = parse_options(
                    parts[2:], ("rtt_ms", "intra_ms", "jitter_ms", "loss"))
                if "rtt_ms" not in options:
                    raise ValueError("dcs topology needs rtt_ms=<ms>")
                topology = cls(kind=TopologyKind.DCS,
                               num_dcs=int(dims[0]),
                               sites_per_dc=int(dims[1]),
                               rtt_ms=options["rtt_ms"],
                               intra_ms=options.get("intra_ms", 0.0),
                               jitter_ms=options.get("jitter_ms", 0.0),
                               loss_prob=options.get("loss", 0.0))
                topology.validate()
                return topology
            if kind == "matrix" and len(parts) >= 2:
                rows = tuple(
                    tuple(float(cell) for cell in row.split(","))
                    for row in parts[1].split(";"))
                options = parse_options(
                    parts[2:], ("jitter_ms", "loss"))
                topology = cls(kind=TopologyKind.MATRIX, matrix=rows,
                               jitter_ms=options.get("jitter_ms", 0.0),
                               loss_prob=options.get("loss", 0.0))
                topology.validate()
                return topology
        except ValueError as error:
            raise ValueError(
                f"bad topology spec {text!r}: {error}") from None
        raise ValueError(
            f"bad topology spec {text!r}; expected {_SPEC_FORMS}")

    def describe(self) -> str:
        if self.kind is TopologyKind.UNIFORM:
            return "uniform"
        extras = ""
        if self.jitter_ms:
            extras += f" jitter={self.jitter_ms:g}ms"
        if self.loss_prob:
            extras += f" loss={self.loss_prob:g}"
        if self.kind is TopologyKind.DCS:
            base = (f"{self.num_dcs} DCs x {self.sites_per_dc} sites, "
                    f"rtt={self.rtt_ms:g}ms intra={self.intra_ms:g}ms")
            return base + extras
        return f"matrix over {len(self.matrix)} sites" + extras


# ----------------------------------------------------------------------
# Cost models (the layer Network.send consults)
# ----------------------------------------------------------------------
class CostModel(typing.Protocol):
    """Per-remote-message wire costs the network consults on send.

    ``placement`` is the site -> datacenter map (None when the model has
    no datacenter structure); the network uses it to classify traffic as
    intra- vs cross-DC for the metrics layer.
    """

    placement: tuple[int, ...] | None

    def wire_delay(self, src_site: int, dst_site: int) -> float:
        """Wire latency in ms for one message on this link."""
        ...  # pragma: no cover - protocol

    def lose(self, src_site: int, dst_site: int) -> bool:
        """Draw whether the message is lost on the (healthy) wire."""
        ...  # pragma: no cover - protocol


class LanSwitch:
    """The paper's switch: zero wire latency, perfectly reliable.

    Configuring the ``uniform`` topology routes every send through this
    model; trajectories are byte-identical to a run with no cost model
    at all (pinned by tests and the golden fixture), and the consult
    overhead is gated at <= 2% by ``scripts/bench_trajectory.py``.
    """

    placement = None

    def wire_delay(self, src_site: int, dst_site: int) -> float:
        return 0.0

    def lose(self, src_site: int, dst_site: int) -> bool:
        return False

    def describe(self) -> str:
        return "uniform"

    def __repr__(self) -> str:
        return "<LanSwitch>"


class WanTopology:
    """A resolved multi-datacenter topology paying per-link wire costs.

    Jitter and loss draws come from a dedicated RNG substream per
    *directed link* (``topology-link-<src>-<dst>``), so adding a
    subscriber or another fault never perturbs the wire, protocols face
    common random numbers, and soak checkpoints restore the streams via
    the normal :meth:`repro.sim.rng.RandomStreams.capture_state` path.
    """

    def __init__(self, topology: NetworkTopology, num_sites: int,
                 streams: "RandomStreams") -> None:
        topology.validate()
        topology.check_num_sites(num_sites)
        self.topology = topology
        self.placement = topology.placement(num_sites)
        self._latency = topology.latency_matrix(num_sites)
        self._jitter_ms = topology.jitter_ms
        self._loss_prob = topology.loss_prob
        self._streams = streams
        #: per-directed-link RNG streams, created lazily on first use.
        self._link_rngs: dict[tuple[int, int], typing.Any] = {}

    def _link_rng(self, src_site: int, dst_site: int):
        rng = self._link_rngs.get((src_site, dst_site))
        if rng is None:
            rng = self._streams.stream(
                f"topology-link-{src_site}-{dst_site}")
            self._link_rngs[(src_site, dst_site)] = rng
        return rng

    def is_cross_dc(self, src_site: int, dst_site: int) -> bool:
        placement = self.placement
        assert placement is not None
        return placement[src_site] != placement[dst_site]

    def wire_delay(self, src_site: int, dst_site: int) -> float:
        delay = self._latency[src_site][dst_site]
        if self._jitter_ms > 0.0 and self.is_cross_dc(src_site, dst_site):
            delay += self._link_rng(src_site, dst_site).expovariate(
                1.0 / self._jitter_ms)
        return delay

    def lose(self, src_site: int, dst_site: int) -> bool:
        if self._loss_prob <= 0.0 or not self.is_cross_dc(src_site,
                                                          dst_site):
            return False
        return self._link_rng(src_site, dst_site).random() \
            < self._loss_prob

    def describe(self) -> str:
        return self.topology.describe()

    def __repr__(self) -> str:
        return f"<WanTopology {self.describe()}>"


def build_cost_model(topology: NetworkTopology | None, num_sites: int,
                     streams: "RandomStreams") -> CostModel | None:
    """The cost model a system should run (None = no indirection at all).

    No topology keeps the historical zero-consult hot path; ``uniform``
    routes through :class:`LanSwitch` (byte-identical, gated overhead);
    anything else pays real wire costs via :class:`WanTopology`.
    """
    if topology is None:
        return None
    if topology.is_uniform:
        return LanSwitch()
    return WanTopology(topology, num_sites, streams)
