//! `flashsim-net` — the FLASH interconnect model: a hypercube network with
//! e-cube routing, 50 ns hop latency, and per-link occupancy.
//!
//! The paper's Table 1 gives the network as "50 ns hops, hypercube"; the
//! NUMA-vs-FlashLite comparison (§3.3) turns on whether *contention in the
//! network and the routers* is modelled. [`Network::send`] therefore has
//! two modes: with [`NetworkParams::contention`] enabled each hop claims
//! the traversed link's occupancy timeline (FlashLite), and with it
//! disabled the message sails through at pure latency (the generic NUMA
//! model).
//!
//! # Examples
//!
//! ```
//! use flashsim_net::{Network, NetworkParams, Topology};
//! use flashsim_engine::Time;
//!
//! let topo = Topology::hypercube(8).unwrap();
//! assert_eq!(topo.hops(0, 7), 3);
//! let mut net = Network::new(topo, NetworkParams::flash());
//! let arrival = net.send(0, 7, 16, Time::ZERO);
//! assert!(arrival.as_ns() >= 150); // three 50ns hops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use flashsim_engine::ckpt::{Ckpt, CkptError};
use flashsim_engine::{MetricId, MetricKind, Observers, Resource, StatSet, Time, TimeDelta};

/// A hypercube topology over a power-of-two number of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    nodes: u32,
    dims: u32,
}

/// Error returned when a topology cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError {
    nodes: u32,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hypercube needs a power-of-two node count, got {}",
            self.nodes
        )
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Creates a hypercube over `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] unless `nodes` is a power of two (1 is
    /// allowed: a single node with no links).
    pub fn hypercube(nodes: u32) -> Result<Topology, TopologyError> {
        if nodes == 0 || !nodes.is_power_of_two() {
            return Err(TopologyError { nodes });
        }
        Ok(Topology {
            nodes,
            dims: nodes.trailing_zeros(),
        })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Hypercube dimensionality (log2 of nodes).
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Hop distance between two nodes (Hamming distance).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn hops(&self, from: u32, to: u32) -> u32 {
        assert!(from < self.nodes && to < self.nodes, "node out of range");
        (from ^ to).count_ones()
    }

    /// The e-cube route from `from` to `to`: the sequence of nodes visited
    /// after `from`, correcting address bits from least- to most-
    /// significant (deadlock-free dimension-ordered routing).
    pub fn route(&self, from: u32, to: u32) -> Vec<u32> {
        assert!(from < self.nodes && to < self.nodes, "node out of range");
        let mut path = Vec::with_capacity(self.hops(from, to) as usize);
        let mut cur = from;
        for dim in 0..self.dims {
            let bit = 1u32 << dim;
            if (cur ^ to) & bit != 0 {
                cur ^= bit;
                path.push(cur);
            }
        }
        path
    }

    /// A stable index for the directed link leaving `node` along `dim`.
    fn link_index(&self, node: u32, dim: u32) -> usize {
        (node * self.dims + dim) as usize
    }

    /// Total number of directed links.
    pub fn links(&self) -> usize {
        (self.nodes * self.dims) as usize
    }
}

/// Timing parameters of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkParams {
    /// Per-hop (router + wire) latency.
    pub hop_latency: TimeDelta,
    /// Link occupancy per byte transferred (inverse bandwidth).
    pub ps_per_byte: u64,
    /// Fixed per-message link occupancy (header/flit framing).
    pub occupancy_base: TimeDelta,
    /// Whether link occupancy and queueing are modelled at all.
    pub contention: bool,
}

impl NetworkParams {
    /// The FLASH hardware values: 50 ns hops, roughly 800 MB/s per link.
    pub fn flash() -> NetworkParams {
        NetworkParams {
            hop_latency: TimeDelta::from_ns(50),
            ps_per_byte: 1250, // 1.25 ns/byte = 800 MB/s
            occupancy_base: TimeDelta::from_ns(4),
            contention: true,
        }
    }

    /// Latency-only (no contention) variant used by the NUMA model.
    pub fn latency_only() -> NetworkParams {
        NetworkParams {
            contention: false,
            ..NetworkParams::flash()
        }
    }

    /// Occupancy of one link by a message of `bytes` payload.
    pub fn occupancy(&self, bytes: u64) -> TimeDelta {
        self.occupancy_base + TimeDelta::from_ps(self.ps_per_byte * bytes)
    }
}

/// What one message delivery cost, split for cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the message arrives at its destination.
    pub arrival: Time,
    /// Time spent queued behind other messages on contended links (zero
    /// without contention). `arrival - send_time - wait` is pure flight.
    pub wait: TimeDelta,
}

/// The interconnect: topology plus per-link occupancy state.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    params: NetworkParams,
    links: Vec<Resource>,
    messages: u64,
    total_hops: u64,
    total_wait: TimeDelta,
    obs: Observers,
    tel_messages: MetricId,
    tel_link_busy: MetricId,
    tel_link_wait: MetricId,
    tel_inflight: MetricId,
    /// Arrival times of messages still in flight; maintained only while
    /// telemetry is attached (pruned against each send's start time).
    inflight: Vec<Time>,
}

impl Network {
    /// Creates an idle network.
    pub fn new(topo: Topology, params: NetworkParams) -> Network {
        Network {
            topo,
            params,
            links: (0..topo.links()).map(|_| Resource::new("link")).collect(),
            messages: 0,
            total_hops: 0,
            total_wait: TimeDelta::ZERO,
            obs: Observers::disabled(),
            tel_messages: MetricId::NONE,
            tel_link_busy: MetricId::NONE,
            tel_link_wait: MetricId::NONE,
            tel_inflight: MetricId::NONE,
            inflight: Vec::new(),
        }
    }

    /// Attaches the owning model's observers and registers the network's
    /// telemetry series: message rate (`net.messages`), per-window link
    /// utilization in busy picoseconds (`net.link_busy_ps`), peak per-hop
    /// queueing (`net.link_wait_ps`) and in-flight message depth
    /// (`net.inflight`). What goes to the span tracer is documented on
    /// [`Observers`].
    pub fn attach(&mut self, obs: &Observers) {
        let telemetry = &obs.telemetry;
        self.tel_messages = telemetry.register("net.messages", MetricKind::Counter);
        self.tel_link_busy = telemetry.register("net.link_busy_ps", MetricKind::Counter);
        self.tel_link_wait = telemetry.register("net.link_wait_ps", MetricKind::Gauge);
        self.tel_inflight = telemetry.register("net.inflight", MetricKind::Gauge);
        self.obs = obs.clone();
    }

    /// The topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The timing parameters.
    pub fn params(&self) -> NetworkParams {
        self.params
    }

    /// Sends a `bytes`-byte message from `from` to `to` starting at `now`;
    /// returns its arrival time at `to`.
    ///
    /// With contention enabled, each hop queues on the directed link it
    /// traverses; without, the message takes pure latency. A message to
    /// self arrives immediately.
    pub fn send(&mut self, from: u32, to: u32, bytes: u64, now: Time) -> Time {
        self.deliver(from, to, bytes, now).arrival
    }

    /// Like [`send`](Network::send), but also reports how much of the
    /// transit time was link-queueing [`wait`](Delivery::wait) so callers
    /// can decompose the delivery for cycle accounting.
    pub fn deliver(&mut self, from: u32, to: u32, bytes: u64, now: Time) -> Delivery {
        self.messages += 1;
        self.obs.telemetry.count(self.tel_messages, now, 1);
        if from == to {
            return Delivery {
                arrival: now,
                wait: TimeDelta::ZERO,
            };
        }
        let mut t = now;
        let mut cur = from;
        let mut waited = TimeDelta::ZERO;
        let spans_on = self.obs.spans.is_enabled();
        // Walk the e-cube route inline (least- to most-significant differing
        // bit) rather than materializing it: deliver() runs once per protocol
        // message and a per-call route Vec was measurable in profiles.
        for dim in 0..self.topo.dims {
            let bit = 1u32 << dim;
            if (cur ^ to) & bit == 0 {
                continue;
            }
            let hop_from = t;
            if self.params.contention {
                let idx = self.topo.link_index(cur, dim);
                let occupancy = self.params.occupancy(bytes);
                let grant = self.links[idx].acquire(t, occupancy);
                self.total_wait += grant.wait;
                waited += grant.wait;
                self.obs
                    .telemetry
                    .count(self.tel_link_busy, grant.start, occupancy.as_ps());
                self.obs
                    .telemetry
                    .gauge(self.tel_link_wait, grant.start, grant.wait.as_ps());
                t = grant.start + self.params.hop_latency;
            } else {
                t += self.params.hop_latency;
            }
            if spans_on {
                // Zero-charge: the enclosing "net" leg carries the
                // transaction's network charge; hops only localize it
                // (the hop span covers link wait plus flight).
                self.obs
                    .spans
                    .leg("hop", cur, hop_from, t, None, TimeDelta::ZERO);
            }
            self.total_hops += 1;
            cur ^= bit;
        }
        if self.obs.telemetry.enabled() {
            // In-flight depth: messages sent but not yet arrived as of
            // this send's start. The vec exists only while telemetry is
            // attached, so the disabled path stays one branch.
            self.inflight.retain(|&arrival| arrival > now);
            self.inflight.push(t);
            self.obs
                .telemetry
                .gauge(self.tel_inflight, now, self.inflight.len() as u64);
        }
        Delivery {
            arrival: t,
            wait: waited,
        }
    }

    /// The pure (zero-load) latency of a message over `hops` hops.
    pub fn uncontended_latency(&self, hops: u32) -> TimeDelta {
        self.params.hop_latency * u64::from(hops)
    }

    /// Walks link occupancy timelines, traffic counters, and the
    /// in-flight arrival set in the current checkpoint section; a restore
    /// fails closed on a different topology or contention setting.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        let shape = [
            u64::from(self.topo.nodes),
            u64::from(self.params.contention),
        ];
        c.interlock("shape", &shape)?;
        c.u64("messages", &mut self.messages)?;
        c.u64("total_hops", &mut self.total_hops)?;
        c.delta("total_wait", &mut self.total_wait)?;
        c.times("inflight", &mut self.inflight, ..)?;
        for link in &mut self.links {
            link.ckpt(c)?;
        }
        Ok(())
    }

    /// Network statistics.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("net.messages", self.messages as f64);
        s.set("net.hops", self.total_hops as f64);
        s.set("net.wait_ns", self.total_wait.as_ns_f64());
        let busy: f64 = self.links.iter().map(|l| l.busy_total().as_ns_f64()).sum();
        s.set("net.link_busy_ns", busy);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_engine::ckpt::{CkptReader, CkptWriter};

    #[test]
    fn hypercube_construction() {
        for n in [1u32, 2, 4, 8, 16, 32] {
            let t = Topology::hypercube(n).unwrap();
            assert_eq!(t.nodes(), n);
            assert_eq!(2u32.pow(t.dims()), n);
        }
        assert!(Topology::hypercube(0).is_err());
        assert!(Topology::hypercube(3).is_err());
        assert!(Topology::hypercube(12).is_err());
    }

    #[test]
    fn topology_error_displays() {
        let err = Topology::hypercube(12).unwrap_err();
        assert!(format!("{err}").contains("12"));
    }

    #[test]
    fn hops_is_hamming_distance() {
        let t = Topology::hypercube(16).unwrap();
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 15), 4);
        assert_eq!(t.hops(5, 10), 4);
        assert_eq!(t.hops(3, 1), 1);
    }

    #[test]
    fn route_is_valid_and_minimal() {
        let t = Topology::hypercube(16).unwrap();
        for from in 0..16 {
            for to in 0..16 {
                let route = t.route(from, to);
                assert_eq!(route.len() as u32, t.hops(from, to));
                let mut cur = from;
                for &next in &route {
                    assert_eq!((cur ^ next).count_ones(), 1, "non-adjacent hop");
                    cur = next;
                }
                if !route.is_empty() {
                    assert_eq!(*route.last().unwrap(), to);
                } else {
                    assert_eq!(from, to);
                }
            }
        }
    }

    #[test]
    fn self_send_is_free() {
        let mut net = Network::new(Topology::hypercube(4).unwrap(), NetworkParams::flash());
        assert_eq!(net.send(2, 2, 128, Time::from_ns(10)), Time::from_ns(10));
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut net = Network::new(Topology::hypercube(8).unwrap(), NetworkParams::flash());
        let t1 = net.send(0, 1, 0, Time::ZERO);
        assert_eq!(t1.as_ns(), 50);
        let mut net2 = Network::new(Topology::hypercube(8).unwrap(), NetworkParams::flash());
        let t3 = net2.send(0, 7, 0, Time::ZERO);
        assert_eq!(t3.as_ns(), 150);
    }

    #[test]
    fn contention_queues_on_shared_link() {
        let mut net = Network::new(Topology::hypercube(2).unwrap(), NetworkParams::flash());
        let a = net.send(0, 1, 128, Time::ZERO);
        let b = net.send(0, 1, 128, Time::ZERO);
        assert!(b > a, "second message must queue behind the first");
        assert!(net.stats().get_or_zero("net.wait_ns") > 0.0);
    }

    #[test]
    fn latency_only_ignores_contention() {
        let mut net = Network::new(
            Topology::hypercube(2).unwrap(),
            NetworkParams::latency_only(),
        );
        let a = net.send(0, 1, 128, Time::ZERO);
        let b = net.send(0, 1, 128, Time::ZERO);
        assert_eq!(a, b, "latency-only model must not queue");
        assert_eq!(net.stats().get_or_zero("net.wait_ns"), 0.0);
    }

    #[test]
    fn disjoint_links_do_not_interfere() {
        let mut net = Network::new(Topology::hypercube(4).unwrap(), NetworkParams::flash());
        let a = net.send(0, 1, 128, Time::ZERO);
        let b = net.send(2, 3, 128, Time::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn occupancy_includes_payload() {
        let p = NetworkParams::flash();
        assert!(p.occupancy(128) > p.occupancy(16));
        assert_eq!(
            p.occupancy(0),
            p.occupancy_base,
            "empty message costs only framing"
        );
    }

    #[test]
    fn stats_count_messages_and_hops() {
        let mut net = Network::new(Topology::hypercube(8).unwrap(), NetworkParams::flash());
        net.send(0, 7, 16, Time::ZERO);
        net.send(1, 0, 16, Time::ZERO);
        let s = net.stats();
        assert_eq!(s.get_or_zero("net.messages"), 2.0);
        assert_eq!(s.get_or_zero("net.hops"), 4.0);
    }

    #[test]
    fn uncontended_latency_matches_hops() {
        let net = Network::new(Topology::hypercube(16).unwrap(), NetworkParams::flash());
        assert_eq!(net.uncontended_latency(4).as_ns(), 200);
        assert_eq!(net.uncontended_latency(0), TimeDelta::ZERO);
    }

    #[test]
    fn ckpt_roundtrip_preserves_link_timelines() {
        let mut a = Network::new(Topology::hypercube(4).unwrap(), NetworkParams::flash());
        a.send(0, 3, 128, Time::ZERO);
        a.send(0, 1, 128, Time::from_ns(1));
        let mut w = CkptWriter::new("net-test");
        a.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();

        let mut b = Network::new(Topology::hypercube(4).unwrap(), NetworkParams::flash());
        let mut r = CkptReader::open(&text).expect("open");
        b.ckpt(&mut Ckpt::Load(&mut r)).expect("load");
        r.finish().expect("fully consumed");

        // Identical future behaviour: same queueing on the shared link.
        let ta = a.send(0, 1, 64, Time::from_ns(2));
        let tb = b.send(0, 1, 64, Time::from_ns(2));
        assert_eq!(ta, tb);
        assert_eq!(a.stats().to_json(), b.stats().to_json());

        let mut other = Network::new(Topology::hypercube(8).unwrap(), NetworkParams::flash());
        let mut r = CkptReader::open(&text).expect("open");
        assert!(matches!(
            other.ckpt(&mut Ckpt::Load(&mut r)),
            Err(CkptError::Parse { .. })
        ));
    }

    #[test]
    fn telemetry_tracks_messages_links_and_inflight() {
        let tel = flashsim_engine::Telemetry::new();
        let mut net = Network::new(Topology::hypercube(8).unwrap(), NetworkParams::flash());
        net.attach(&Observers {
            telemetry: tel.clone(),
            ..Observers::disabled()
        });
        // Two overlapping messages over the same first link contend.
        net.send(0, 7, 64, Time::ZERO);
        net.send(0, 1, 64, Time::from_ns(1));
        let s = tel.snapshot(Time::from_ns(1000)).expect("enabled");
        assert_eq!(s.get("net.messages").expect("counter").total, 2);
        assert!(s.get("net.link_busy_ps").expect("counter").total > 0);
        assert!(
            s.get("net.link_wait_ps").expect("gauge").total > 0,
            "second message queued behind the first"
        );
        assert_eq!(
            s.get("net.inflight").expect("gauge").total,
            2,
            "both messages in flight at the second send"
        );
        assert!(s.conserved());
    }
}
