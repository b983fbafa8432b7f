//! Deterministic, seeded fault injection.
//!
//! The validation loop only closes if every run either completes or fails
//! *diagnosably*; to trust that property we must be able to push every
//! platform into its failure modes on purpose. A [`FaultPlan`] is a pure
//! value describing which faults a run suffers — latency perturbation,
//! dropped or delayed protocol messages, a stalled node, directory
//! pointer-storage pressure, a shrunken MAGIC inbound queue — and a
//! [`FaultInjector`] is the cheaply-cloneable handle the machine, the
//! memory system, and the network consult while simulating.
//!
//! Everything is driven by one seeded [`Rng`] stream, so a plan with the
//! same seed produces byte-identical outcomes on every host: chaos runs
//! are experiments, not noise.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::fault::{FaultInjector, FaultPlan, MessageFate};
//!
//! let plan = FaultPlan::chaos(42);
//! let a = FaultInjector::new(plan);
//! let b = FaultInjector::new(plan);
//! // Identical seeds make identical decisions, call for call.
//! assert_eq!(a.message_fate(0, 1), b.message_fate(0, 1));
//! ```

use crate::ckpt::{Ckpt, CkptError};
use crate::rng::Rng;
use crate::stats::StatSet;
use crate::time::TimeDelta;
use std::sync::{Arc, Mutex};

/// What happens to one protocol message under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// The message arrives normally.
    Deliver,
    /// The message is delayed by the given extra latency.
    Delay(TimeDelta),
    /// The message is lost; the sender times out and resends.
    Drop,
}

/// A deterministic description of the faults one run suffers.
///
/// A plan is inert data: nothing happens until a [`FaultInjector`] built
/// from it is attached to a machine. `FaultPlan::default()` injects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the fault decision stream.
    pub seed: u64,
    /// Probability that a memory transaction's latency is perturbed.
    pub latency_prob: f64,
    /// Maximum relative perturbation (0.5 ⇒ up to +50 % extra latency).
    pub latency_spread: f64,
    /// Probability that a protocol message is dropped.
    pub drop_prob: f64,
    /// Timeout charged before a dropped message is resent.
    pub drop_timeout: TimeDelta,
    /// Probability that a protocol message is delayed.
    pub delay_prob: f64,
    /// Extra latency charged to delayed messages.
    pub delay: TimeDelta,
    /// A node that stops executing ops entirely, if any.
    pub stall_node: Option<u32>,
    /// Ops the stalled node executes before it stops.
    pub stall_after_ops: u64,
    /// Clamp on the directory pointer-pool capacity (pointer-storage
    /// pressure: forces sharer reclamation invalidations).
    pub dir_pool_cap: Option<u32>,
    /// Clamp on the MAGIC inbound-queue NACK threshold, in nanoseconds of
    /// queued work (provokes NACK/retry storms).
    pub magic_queue_ns: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if the plan can ever inject a fault at simulation time.
    /// (Pool/queue clamps act at construction time and are excluded.)
    pub fn is_active(&self) -> bool {
        self.latency_prob > 0.0
            || self.drop_prob > 0.0
            || self.delay_prob > 0.0
            || self.stall_node.is_some()
    }

    /// Deterministic one-line summary of the armed fault classes, for
    /// run manifests: every telemetry/report artifact must be
    /// attributable to the exact fault configuration that produced it.
    /// Includes the construction-time clamps `is_active` excludes.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.latency_prob > 0.0 {
            parts.push(format!(
                "latency p={:.3} spread={:.2}",
                self.latency_prob, self.latency_spread
            ));
        }
        if self.drop_prob > 0.0 {
            parts.push(format!(
                "drop p={:.3} timeout={}ns",
                self.drop_prob,
                self.drop_timeout.as_ns()
            ));
        }
        if self.delay_prob > 0.0 {
            parts.push(format!(
                "delay p={:.3} +{}ns",
                self.delay_prob,
                self.delay.as_ns()
            ));
        }
        if let Some(node) = self.stall_node {
            parts.push(format!(
                "stall node {} after {} ops",
                node, self.stall_after_ops
            ));
        }
        if let Some(cap) = self.dir_pool_cap {
            parts.push(format!("dir_pool<={cap}"));
        }
        if let Some(ns) = self.magic_queue_ns {
            parts.push(format!("magic_queue<={ns}ns"));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            format!("seed={}: {}", self.seed, parts.join("; "))
        }
    }

    /// A seeded chaos recipe: the seed deterministically picks which
    /// fault classes are armed and how hard. Used by the `chaos` bench to
    /// sweep the failure space reproducibly.
    pub fn chaos(seed: u64) -> FaultPlan {
        let mut r = Rng::seeded(seed ^ 0xC4A0_5EED);
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        // Latency perturbation: common, mild-to-severe.
        if r.gen_f64() < 0.7 {
            plan.latency_prob = 0.02 + r.gen_f64() * 0.2;
            plan.latency_spread = 0.1 + r.gen_f64() * 2.0;
        }
        // Message loss/delay: exercises the NACK/retry and timeout paths.
        if r.gen_f64() < 0.5 {
            plan.drop_prob = r.gen_f64() * 0.05;
            plan.drop_timeout = TimeDelta::from_ns(500 + r.gen_range(4_000));
        }
        if r.gen_f64() < 0.5 {
            plan.delay_prob = r.gen_f64() * 0.2;
            plan.delay = TimeDelta::from_ns(100 + r.gen_range(2_000));
        }
        // Stalled node: the run must end in `Stalled`, not a hang.
        if r.gen_f64() < 0.25 {
            plan.stall_node = Some(r.gen_range(4) as u32);
            plan.stall_after_ops = 50 + r.gen_range(5_000);
        }
        // Directory pointer-storage pressure.
        if r.gen_f64() < 0.35 {
            plan.dir_pool_cap = Some(2 + r.gen_range(30) as u32);
        }
        // MAGIC inbound-queue pressure.
        if r.gen_f64() < 0.35 {
            plan.magic_queue_ns = Some(50 + r.gen_range(2_000));
        }
        plan
    }
}

#[derive(Debug, Default)]
struct Counters {
    perturbed: u64,
    extra_latency: TimeDelta,
    dropped: u64,
    delayed: u64,
    stalled_ops: u64,
}

#[derive(Debug)]
struct Inner {
    rng: Rng,
    counters: Counters,
}

/// The live fault-decision handle built from a [`FaultPlan`].
///
/// Clones share one decision stream and one set of counters, exactly like
/// [`crate::account::Profiler`] clones share a book: the machine layer and the
/// memory system consult the same injector, and the interleaving of their
/// queries is fixed by the (deterministic) simulation itself.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    inner: Option<Arc<Mutex<Inner>>>,
}

impl FaultInjector {
    /// An injector that never injects (the default every machine starts
    /// with); all queries are a single branch.
    pub fn inert() -> FaultInjector {
        FaultInjector::default()
    }

    /// Builds the live injector for `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            inner: if plan.is_active() {
                Some(Arc::new(Mutex::new(Inner {
                    rng: Rng::seeded(plan.seed),
                    counters: Counters::default(),
                })))
            } else {
                None
            },
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True if any simulation-time fault can fire.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    fn with_inner<T>(&self, f: impl FnOnce(&mut Inner) -> T) -> Option<T> {
        self.inner
            .as_ref()
            .map(|m| f(&mut m.lock().expect("fault injector poisoned"))) // gate: allow
    }

    /// Walks the injector's mutable state — the decision-stream
    /// position and the counters. The plan itself is immutable run
    /// identity and lives in the provenance string, so a restoring
    /// injector was built from the same plan.
    pub fn ckpt(&self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.section("fault")?;
        c.interlock("active", &[u64::from(self.inner.is_some())])?;
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let inner = &mut *inner.lock().expect("fault injector poisoned"); // gate: allow
        let mut rng = inner.rng.state();
        c.array("rng", &mut rng)?;
        inner.rng = Rng::from_state(rng);
        let n = &mut inner.counters;
        c.u64("perturbed", &mut n.perturbed)?;
        c.delta("extra_latency", &mut n.extra_latency)?;
        c.u64("dropped", &mut n.dropped)?;
        c.u64("delayed", &mut n.delayed)?;
        c.u64("stalled_ops", &mut n.stalled_ops)
    }

    /// Extra latency to add to a memory transaction that took `base`.
    /// Returns zero when the perturbation does not fire.
    pub fn perturb_latency(&self, base: TimeDelta) -> TimeDelta {
        if self.plan.latency_prob <= 0.0 {
            return TimeDelta::ZERO;
        }
        self.with_inner(|inner| {
            if inner.rng.gen_f64() >= self.plan.latency_prob {
                return TimeDelta::ZERO;
            }
            let scale = inner.rng.gen_f64() * self.plan.latency_spread;
            let extra = TimeDelta::from_ps((base.as_ps() as f64 * scale) as u64);
            inner.counters.perturbed += 1;
            inner.counters.extra_latency += extra;
            extra
        })
        .unwrap_or(TimeDelta::ZERO)
    }

    /// Decides the fate of one protocol message from `from` to `to`.
    pub fn message_fate(&self, from: u32, to: u32) -> MessageFate {
        if self.plan.drop_prob <= 0.0 && self.plan.delay_prob <= 0.0 {
            return MessageFate::Deliver;
        }
        let _ = (from, to);
        self.with_inner(|inner| {
            let roll = inner.rng.gen_f64();
            if roll < self.plan.drop_prob {
                inner.counters.dropped += 1;
                MessageFate::Drop
            } else if roll < self.plan.drop_prob + self.plan.delay_prob {
                inner.counters.delayed += 1;
                MessageFate::Delay(self.plan.delay)
            } else {
                MessageFate::Deliver
            }
        })
        .unwrap_or(MessageFate::Deliver)
    }

    /// True if node `node` is stalled after having executed `ops` ops:
    /// the machine must stop scheduling it and eventually report
    /// `Stalled`, never hang.
    pub fn node_stalled(&self, node: u32, ops: u64) -> bool {
        match self.plan.stall_node {
            Some(n) if n == node && ops >= self.plan.stall_after_ops => {
                self.with_inner(|inner| inner.counters.stalled_ops += 1);
                true
            }
            _ => false,
        }
    }

    /// Folds the injector's counters into `stats` under `fault.*` keys.
    pub fn absorb_into(&self, stats: &mut StatSet) {
        self.with_inner(|inner| {
            let c = &inner.counters;
            stats.add("fault.perturbed", c.perturbed as f64);
            stats.add("fault.extra_latency_ns", c.extra_latency.as_ns_f64());
            stats.add("fault.dropped_msgs", c.dropped as f64);
            stats.add("fault.delayed_msgs", c.delayed as f64);
            stats.add("fault.stall_hits", c.stalled_ops as f64);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{CkptReader, CkptWriter};

    #[test]
    fn inert_injector_is_free_and_silent() {
        let inj = FaultInjector::inert();
        assert!(!inj.is_active());
        assert_eq!(
            inj.perturb_latency(TimeDelta::from_ns(100)),
            TimeDelta::ZERO
        );
        assert_eq!(inj.message_fate(0, 1), MessageFate::Deliver);
        assert!(!inj.node_stalled(0, u64::MAX));
        let mut s = StatSet::new();
        inj.absorb_into(&mut s);
        assert_eq!(s.get("fault.perturbed"), None);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan {
            seed: 7,
            drop_prob: 0.3,
            delay_prob: 0.3,
            delay: TimeDelta::from_ns(100),
            drop_timeout: TimeDelta::from_ns(500),
            ..FaultPlan::default()
        };
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        for i in 0..200 {
            assert_eq!(a.message_fate(0, i % 4), b.message_fate(0, i % 4));
        }
    }

    #[test]
    fn chaos_recipes_are_seed_deterministic_and_varied() {
        assert_eq!(FaultPlan::chaos(3), FaultPlan::chaos(3));
        let distinct = (0..32)
            .map(FaultPlan::chaos)
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count();
        assert!(distinct > 16, "chaos recipes barely vary: {distinct}");
        // At least one recipe in a small sweep arms each class.
        assert!((0..32)
            .map(FaultPlan::chaos)
            .any(|p| p.stall_node.is_some()));
        assert!((0..32)
            .map(FaultPlan::chaos)
            .any(|p| p.dir_pool_cap.is_some()));
        assert!((0..32).map(FaultPlan::chaos).any(|p| p.drop_prob > 0.0));
    }

    #[test]
    fn stall_fires_only_after_threshold_on_target_node() {
        let plan = FaultPlan {
            stall_node: Some(2),
            stall_after_ops: 100,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        assert!(!inj.node_stalled(2, 99));
        assert!(inj.node_stalled(2, 100));
        assert!(!inj.node_stalled(1, 1_000_000));
    }

    #[test]
    fn ckpt_roundtrip_resumes_the_decision_stream() {
        let plan = FaultPlan {
            seed: 19,
            latency_prob: 0.5,
            latency_spread: 1.0,
            drop_prob: 0.1,
            delay_prob: 0.1,
            delay: TimeDelta::from_ns(50),
            ..FaultPlan::default()
        };
        let a = FaultInjector::new(plan);
        for i in 0..37 {
            a.perturb_latency(TimeDelta::from_ns(100 + i));
            a.message_fate(0, 1);
        }
        let mut w = CkptWriter::new("p");
        a.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();
        let b = FaultInjector::new(plan);
        let mut r = CkptReader::open(&text).expect("intact");
        b.ckpt(&mut Ckpt::Load(&mut r)).expect("loads");
        r.finish().expect("consumed");
        // Identical decisions and identical counters from here on.
        for i in 0..50 {
            assert_eq!(
                a.perturb_latency(TimeDelta::from_ns(200 + i)),
                b.perturb_latency(TimeDelta::from_ns(200 + i))
            );
            assert_eq!(a.message_fate(1, 0), b.message_fate(1, 0));
        }
        let (mut sa, mut sb) = (StatSet::new(), StatSet::new());
        a.absorb_into(&mut sa);
        b.absorb_into(&mut sb);
        assert_eq!(sa.get("fault.perturbed"), sb.get("fault.perturbed"));
        assert_eq!(sa.get("fault.dropped_msgs"), sb.get("fault.dropped_msgs"));
    }

    #[test]
    fn perturbation_counts_and_bounds() {
        let plan = FaultPlan {
            seed: 11,
            latency_prob: 1.0,
            latency_spread: 0.5,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        for _ in 0..100 {
            let extra = inj.perturb_latency(TimeDelta::from_ns(1000));
            assert!(extra <= TimeDelta::from_ns(500));
        }
        let mut s = StatSet::new();
        inj.absorb_into(&mut s);
        assert_eq!(s.get_or_zero("fault.perturbed"), 100.0);
    }
}
