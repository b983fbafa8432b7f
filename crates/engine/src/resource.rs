//! Occupancy-based contention modelling.
//!
//! The paper's central memory-system distinction is between FlashLite, which
//! models *occupancy* of the MAGIC protocol processor and *contention* in the
//! network, and the generic NUMA model, which models only latency. A
//! [`Resource`] captures occupancy with the classic "busy-until" timeline: a
//! request arriving at time `t` for `d` of service starts at
//! `max(t, busy_until)` and pushes `busy_until` to `start + d`. The wait
//! `start - t` is the queueing delay induced by contention.
//!
//! [`ResourcePool`] models `k` identical servers (e.g. interleaved memory
//! banks) by tracking the earliest-free server.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::resource::Resource;
//! use flashsim_engine::time::{Time, TimeDelta};
//!
//! let mut pp = Resource::new("magic-pp");
//! let g0 = pp.acquire(Time::ZERO, TimeDelta::from_ns(100));
//! let g1 = pp.acquire(Time::from_ns(30), TimeDelta::from_ns(100));
//! assert_eq!(g0.start, Time::ZERO);
//! assert_eq!(g1.start, Time::from_ns(100)); // queued behind g0
//! assert_eq!(g1.wait.as_ns(), 70);
//! ```

use crate::ckpt::{bad, Ckpt, CkptError};
use crate::time::{Time, TimeDelta};

/// The outcome of acquiring a [`Resource`]: when service began and ended,
/// and how long the request waited in queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service actually started (>= request time).
    pub start: Time,
    /// When service completed.
    pub end: Time,
    /// Queueing delay suffered before service began.
    pub wait: TimeDelta,
}

/// A single-server resource with a busy-until occupancy timeline.
#[derive(Debug, Clone)]
pub struct Resource {
    name: &'static str,
    busy_until: Time,
    busy_total: TimeDelta,
    wait_total: TimeDelta,
    grants: u64,
    contended_grants: u64,
}

impl Resource {
    /// Creates an idle resource. `name` labels it in statistics output.
    pub fn new(name: &'static str) -> Resource {
        Resource {
            name,
            busy_until: Time::ZERO,
            busy_total: TimeDelta::ZERO,
            wait_total: TimeDelta::ZERO,
            grants: 0,
            contended_grants: 0,
        }
    }

    /// The resource's label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Requests `service` time starting no earlier than `now`.
    pub fn acquire(&mut self, now: Time, service: TimeDelta) -> Grant {
        let start = now.max(self.busy_until);
        let end = start + service;
        let wait = start.saturating_since(now);
        self.busy_until = end;
        self.busy_total += service;
        self.wait_total += wait;
        self.grants += 1;
        if !wait.is_zero() {
            self.contended_grants += 1;
        }
        Grant { start, end, wait }
    }

    /// Peeks at the queueing delay a request arriving at `now` would suffer,
    /// without occupying the resource.
    pub fn wait_at(&self, now: Time) -> TimeDelta {
        self.busy_until.saturating_since(now)
    }

    /// When the resource next becomes free.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Total service time granted.
    pub fn busy_total(&self) -> TimeDelta {
        self.busy_total
    }

    /// Total queueing delay suffered by all requests.
    pub fn wait_total(&self) -> TimeDelta {
        self.wait_total
    }

    /// Number of requests served.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Number of requests that suffered a non-zero queueing delay.
    pub fn contended_grants(&self) -> u64 {
        self.contended_grants
    }

    /// Utilization over the window ending at `horizon`: busy time divided by
    /// elapsed time. Returns 0 for an empty window.
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon == Time::ZERO {
            return 0.0;
        }
        self.busy_total.as_ps() as f64 / horizon.as_ps() as f64
    }

    /// Forgets all occupancy and statistics, returning to the idle state.
    pub fn reset(&mut self) {
        *self = Resource::new(self.name);
    }

    /// Walks the occupancy timeline and counters, name-stamped so a
    /// restore against the wrong resource fails closed.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.name("res", self.name)?;
        c.time("busy_until", &mut self.busy_until)?;
        c.delta("busy_total", &mut self.busy_total)?;
        c.delta("wait_total", &mut self.wait_total)?;
        c.u64("grants", &mut self.grants)?;
        c.u64("contended_grants", &mut self.contended_grants)
    }
}

/// `k` identical servers (e.g. interleaved memory banks): each request is
/// served by the earliest-free server.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    name: &'static str,
    free_at: Vec<Time>,
    busy_total: TimeDelta,
    wait_total: TimeDelta,
    grants: u64,
}

impl ResourcePool {
    /// Creates a pool of `servers` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(name: &'static str, servers: usize) -> ResourcePool {
        assert!(servers > 0, "resource pool needs at least one server");
        ResourcePool {
            name,
            free_at: vec![Time::ZERO; servers],
            busy_total: TimeDelta::ZERO,
            wait_total: TimeDelta::ZERO,
            grants: 0,
        }
    }

    /// The pool's label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Requests `service` time on the earliest-free server, no earlier than
    /// `now`.
    pub fn acquire(&mut self, now: Time, service: TimeDelta) -> Grant {
        let (idx, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("pool is non-empty"); // gate: allow — constructor rejects empty pools
        let start = now.max(self.free_at[idx]);
        let end = start + service;
        let wait = start.saturating_since(now);
        self.free_at[idx] = end;
        self.busy_total += service;
        self.wait_total += wait;
        self.grants += 1;
        Grant { start, end, wait }
    }

    /// Total service time granted across all servers.
    pub fn busy_total(&self) -> TimeDelta {
        self.busy_total
    }

    /// Total queueing delay suffered by all requests.
    pub fn wait_total(&self) -> TimeDelta {
        self.wait_total
    }

    /// Number of requests served.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Walks the per-server timelines and counters. The pool must have
    /// been built with the same name and server count.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        let servers = self.free_at.len();
        c.name("pool", self.name)?;
        c.times("free_at", &mut self.free_at, ..)?;
        if self.free_at.len() != servers {
            return Err(bad(
                "pool",
                format!("{} x{}", self.name, self.free_at.len()),
            ));
        }
        c.delta("busy_total", &mut self.busy_total)?;
        c.delta("wait_total", &mut self.wait_total)?;
        c.u64("grants", &mut self.grants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_request_starts_immediately() {
        let mut r = Resource::new("r");
        let g = r.acquire(Time::from_ns(5), TimeDelta::from_ns(10));
        assert_eq!(g.start, Time::from_ns(5));
        assert_eq!(g.end, Time::from_ns(15));
        assert!(g.wait.is_zero());
        assert_eq!(r.grants(), 1);
        assert_eq!(r.contended_grants(), 0);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut r = Resource::new("r");
        r.acquire(Time::ZERO, TimeDelta::from_ns(100));
        let g = r.acquire(Time::from_ns(40), TimeDelta::from_ns(50));
        assert_eq!(g.start, Time::from_ns(100));
        assert_eq!(g.end, Time::from_ns(150));
        assert_eq!(g.wait.as_ns(), 60);
        assert_eq!(r.contended_grants(), 1);
        assert_eq!(r.wait_total().as_ns(), 60);
    }

    #[test]
    fn idle_gap_does_not_queue() {
        let mut r = Resource::new("r");
        r.acquire(Time::ZERO, TimeDelta::from_ns(10));
        let g = r.acquire(Time::from_ns(50), TimeDelta::from_ns(10));
        assert!(g.wait.is_zero());
        assert_eq!(g.start, Time::from_ns(50));
    }

    #[test]
    fn wait_at_peeks_without_mutation() {
        let mut r = Resource::new("r");
        r.acquire(Time::ZERO, TimeDelta::from_ns(100));
        assert_eq!(r.wait_at(Time::from_ns(30)).as_ns(), 70);
        assert_eq!(r.wait_at(Time::from_ns(200)), TimeDelta::ZERO);
        assert_eq!(r.grants(), 1);
    }

    #[test]
    fn utilization_is_busy_over_elapsed() {
        let mut r = Resource::new("r");
        r.acquire(Time::ZERO, TimeDelta::from_ns(25));
        assert!((r.utilization(Time::from_ns(100)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(Time::ZERO), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("r");
        r.acquire(Time::ZERO, TimeDelta::from_ns(100));
        r.reset();
        assert_eq!(r.busy_until(), Time::ZERO);
        assert_eq!(r.grants(), 0);
    }

    #[test]
    fn pool_overlaps_up_to_k_requests() {
        let mut p = ResourcePool::new("banks", 2);
        let g0 = p.acquire(Time::ZERO, TimeDelta::from_ns(100));
        let g1 = p.acquire(Time::ZERO, TimeDelta::from_ns(100));
        let g2 = p.acquire(Time::ZERO, TimeDelta::from_ns(100));
        assert!(g0.wait.is_zero());
        assert!(g1.wait.is_zero());
        assert_eq!(g2.start, Time::from_ns(100));
        assert_eq!(g2.wait.as_ns(), 100);
        assert_eq!(p.grants(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        let _ = ResourcePool::new("p", 0);
    }

    #[test]
    fn ckpt_roundtrip_restores_timelines() {
        use crate::ckpt::{CkptReader, CkptWriter};
        let mut r = Resource::new("pp");
        r.acquire(Time::ZERO, TimeDelta::from_ns(100));
        r.acquire(Time::from_ns(40), TimeDelta::from_ns(50));
        let mut p = ResourcePool::new("banks", 3);
        p.acquire(Time::ZERO, TimeDelta::from_ns(70));
        p.acquire(Time::from_ns(10), TimeDelta::from_ns(70));
        let mut w = CkptWriter::new("t");
        r.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        p.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();
        let mut r2 = Resource::new("pp");
        let mut p2 = ResourcePool::new("banks", 3);
        let mut rd = CkptReader::open(&text).expect("intact");
        r2.ckpt(&mut Ckpt::Load(&mut rd)).expect("resource");
        p2.ckpt(&mut Ckpt::Load(&mut rd)).expect("pool");
        rd.finish().expect("consumed");
        assert_eq!(r2.busy_until(), r.busy_until());
        assert_eq!(r2.wait_total(), r.wait_total());
        assert_eq!(r2.contended_grants(), r.contended_grants());
        let ga = p.acquire(Time::from_ns(20), TimeDelta::from_ns(5));
        let gb = p2.acquire(Time::from_ns(20), TimeDelta::from_ns(5));
        assert_eq!(ga, gb);
        // Wrong identity fails closed.
        let mut other = Resource::new("pi");
        let mut rd = CkptReader::open(&text).expect("intact");
        assert!(other.ckpt(&mut Ckpt::Load(&mut rd)).is_err());
    }
}
