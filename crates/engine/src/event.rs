//! A time-ordered event queue.
//!
//! The machine layer schedules processor wake-ups, timer interrupts, and
//! synchronization releases through this queue. Events at equal times are
//! delivered in insertion order (FIFO tie-break), which keeps multi-processor
//! runs deterministic.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::event::EventQueue;
//! use flashsim_engine::time::Time;
//!
//! let mut q = EventQueue::new();
//! q.push(Time::from_ns(20), "late");
//! q.push(Time::from_ns(10), "early");
//! assert_eq!(q.pop(), Some((Time::from_ns(10), "early")));
//! assert_eq!(q.pop(), Some((Time::from_ns(20), "late")));
//! assert_eq!(q.pop(), None);
//! ```

use crate::telemetry::{MetricId, Telemetry};
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of `(Time, T)` events with FIFO tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(Time, u64, usize)>>,
    payloads: Vec<Option<T>>,
    free: Vec<usize>,
    seq: u64,
    telemetry: Telemetry,
    depth_metric: MetricId,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            seq: 0,
            telemetry: Telemetry::disabled(),
            depth_metric: MetricId::NONE,
        }
    }

    /// Records the pending-event depth into `metric` (typically a
    /// volatile gauge — delivery order is a scheduling artifact) of
    /// `telemetry` at every push and pop. Costs one branch per operation
    /// while no depth is tracked.
    pub fn track_depth(&mut self, telemetry: Telemetry, metric: MetricId) {
        self.telemetry = telemetry;
        self.depth_metric = metric;
    }

    /// Schedules `payload` at time `at`.
    pub fn push(&mut self, at: Time, payload: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.payloads[slot] = Some(payload);
                slot
            }
            None => {
                self.payloads.push(Some(payload));
                self.payloads.len() - 1
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
        self.telemetry
            .gauge(self.depth_metric, at, self.heap.len() as u64);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let payload = self.payloads[slot].take().expect("slot holds a payload"); // gate: allow
        self.free.push(slot);
        self.telemetry
            .gauge(self.depth_metric, at, self.heap.len() as u64);
        Some((at, payload))
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        for i in 0..10 {
            q.push(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(7), "x");
        assert_eq!(q.peek_time(), Some(Time::from_ns(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..5 {
            q.push(Time::from_ns(round), round);
            assert_eq!(q.pop(), Some((Time::from_ns(round), round)));
        }
        // Only one payload slot should ever have been allocated.
        assert_eq!(q.payloads.len(), 1);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_reuses_slots_without_mixing_payloads() {
        // The free-list fast path under a realistic pattern: pushes and
        // pops interleave, so freed slots are re-filled while other
        // events are still live. Slot reuse must never hand one event
        // another event's payload, and the slot table must stay bounded
        // by the peak number of simultaneously pending events.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut next_id = 0u64;
        for wave in 0..50u64 {
            // Push 3, pop 2: queue depth grows slowly while slots churn.
            for _ in 0..3 {
                q.push(Time::from_ns(1000 - wave * 7 % 100 + next_id), next_id);
                expected.push((1000 - wave * 7 % 100 + next_id, next_id));
                next_id += 1;
            }
            for _ in 0..2 {
                let (at, id) = q.pop().expect("queue is non-empty");
                // Remove the earliest (time, id) the model expects; FIFO
                // tie-break means equal times pop in insertion order.
                expected.sort_by_key(|&(t, i)| (t, i));
                let (et, eid) = expected.remove(0);
                assert_eq!((at.as_ns(), id), (et, eid), "payload crossed slots");
            }
        }
        assert_eq!(q.len(), 50);
        // Peak pending was 50 + 1 transient; the slot table must not have
        // grown past the peak (i.e. freed slots really were reused).
        assert!(
            q.payloads.len() <= 52,
            "slot table grew to {} for 50 pending events",
            q.payloads.len()
        );
        // Drain fully; everything left must still match the model.
        expected.sort_by_key(|&(t, i)| (t, i));
        for (et, eid) in expected {
            let (at, id) = q.pop().expect("still pending");
            assert_eq!((at.as_ns(), id), (et, eid));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drain_and_refill_cycles_keep_slot_table_bounded() {
        // Fill-drain-fill: after a full drain every slot is on the free
        // list, and the next burst must reuse all of them.
        let mut q = EventQueue::new();
        for cycle in 0..4u64 {
            for i in 0..16u64 {
                q.push(Time::from_ns(cycle * 100 + i), (cycle, i));
            }
            for i in 0..16u64 {
                assert_eq!(q.pop(), Some((Time::from_ns(cycle * 100 + i), (cycle, i))));
            }
            assert!(q.is_empty());
            assert_eq!(q.payloads.len(), 16, "cycle {cycle} leaked slots");
        }
    }

    #[test]
    fn attached_telemetry_tracks_depth() {
        use crate::telemetry::{MetricKind, Telemetry};
        use crate::time::TimeDelta;

        let tel = Telemetry::with_cadence(TimeDelta::from_ns(100));
        let id = tel.register_volatile("engine.event_queue_depth", MetricKind::Gauge);
        let mut q = EventQueue::new();
        q.track_depth(tel.clone(), id);
        q.push(Time::from_ns(10), 'a');
        q.push(Time::from_ns(20), 'b');
        q.push(Time::from_ns(30), 'c');
        q.pop();
        let series = tel.snapshot(Time::from_ns(40)).expect("enabled");
        let m = series.get("engine.event_queue_depth").expect("registered");
        assert_eq!(m.total, 3, "peak depth was three pending events");
        assert!(m.volatile, "delivery order is a scheduling artifact");
    }
}
