//! The future-event list.
//!
//! Events are delivered in `(time, seq)` order.  Two events scheduled for
//! the same instant are delivered in the order they were scheduled, which
//! makes every simulation run fully deterministic — a property the
//! Grid-Federation experiments rely on (identical seeds must reproduce
//! identical figures).
//!
//! Pending events live in one of two places:
//!
//! * An **index-based 4-ary min-heap**.  It stores only small fixed-size
//!   integer keys: the time as [`SimTime::order_bits`], the sequence
//!   number and a slab slot.  Ordering is a pair of integer compares, and
//!   sift operations move 24-byte keys regardless of how wide the model's
//!   message enum is — the federation's `FedMessage` carries whole jobs.
//!   The payloads live in a slab indexed by slot, and the 4-ary layout
//!   halves the tree depth relative to a binary heap.
//! * A **FIFO lane** of whole events for relative-delay scheduling
//!   ([`EventQueue::push_relative`]).  A model that sends every message
//!   with the same latency from a non-decreasing clock produces delivery
//!   times that already arrive in key order; appending them to a queue
//!   skips the heap's sifts and slab bookkeeping.  An event is admitted
//!   when its delay is bit-equal to the lane's delay — set by the first
//!   relative push made while the lane is empty — and its key is not
//!   earlier than the lane's back.  Anything else goes to the heap, so the
//!   lane is sorted by construction whatever callers do.
//!
//! Every pop takes the earlier of the heap root and the lane front under
//! the same `(time, seq)` key, so the lane never changes delivery order.
//! The pre-overhaul `BinaryHeap<Event<M>>` layout is retained as
//! [`BinaryHeapEventQueue`], the differential oracle for that order and
//! the comparison point of the micro benches (and `bench_perf`).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::Event;
use crate::time::SimTime;

/// Arity of the index heap: 4 keeps the tree shallow while children still
/// share a cache line's worth of keys.
const D: usize = 4;

/// Compact queue entry: total order on `(time, seq)` as integers, payload
/// referenced by slab slot.
#[derive(Debug, Clone, Copy)]
struct HeapKey {
    /// [`SimTime::order_bits`] of the event's time.
    time: u64,
    seq: u64,
    slot: u32,
}

impl HeapKey {
    #[inline]
    fn earlier_than(&self, other: &HeapKey) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

/// Future-event list with deterministic ordering.
pub struct EventQueue<M> {
    heap: Vec<HeapKey>,
    slots: Vec<Option<Event<M>>>,
    free: Vec<u32>,
    /// Relative-delay events in key order (see the module docs).
    lane: VecDeque<Event<M>>,
    /// Bit pattern of the delay every event in `lane` was pushed with.
    lane_delay: u64,
    next_seq: u64,
    scheduled_total: u64,
    laned_total: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lane: VecDeque::new(),
            lane_delay: 0,
            next_seq: 0,
            scheduled_total: 0,
            laned_total: 0,
        }
    }

    /// Schedules an event.  The event's `seq` field is overwritten with the
    /// next sequence number so callers never need to manage it.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` events are pending in the heap
    /// simultaneously.
    pub fn push(&mut self, mut event: Event<M>) {
        self.stamp(&mut event);
        self.push_heap(event);
    }

    /// Schedules an event whose time is the caller's clock plus `delay`
    /// (the engine's `send` and `timer`).  The event goes to the FIFO lane
    /// when `delay` is bit-equal to the lane's and its time is not earlier
    /// than the lane's back (an empty lane takes on `delay`); otherwise to
    /// the heap.  Delivery order is the same either way.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` events are pending in the heap
    /// simultaneously.
    pub fn push_relative(&mut self, mut event: Event<M>, delay: f64) {
        self.stamp(&mut event);
        let admitted = match self.lane.back() {
            None => {
                self.lane_delay = delay.to_bits();
                true
            }
            // The new `seq` is the largest yet, so a time not earlier than
            // the back's keeps the lane in `(time, seq)` order.
            Some(back) => {
                delay.to_bits() == self.lane_delay
                    && event.time.order_bits() >= back.time.order_bits()
            }
        };
        if admitted {
            self.laned_total += 1;
            self.lane.push_back(event);
        } else {
            self.push_heap(event);
        }
    }

    fn stamp(&mut self, event: &mut Event<M>) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
    }

    fn push_heap(&mut self, event: Event<M>) {
        let key = HeapKey {
            time: event.time.order_bits(),
            seq: event.seq,
            slot: match self.free.pop() {
                Some(slot) => {
                    self.slots[slot as usize] = Some(event);
                    slot
                }
                None => {
                    // Documented capacity limit (see `# Panics`): the 4-byte
                    // slot index is what keeps the keys compact.
                    // fedlint: allow(hot-path-unwrap)
                    let slot = u32::try_from(self.slots.len())
                        .expect("more than u32::MAX pending events");
                    self.slots.push(Some(event));
                    slot
                }
            },
        };
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1);
    }

    /// Whether the lane front is the earliest pending event: it is
    /// non-empty and its key precedes the heap root's (if any).
    #[inline]
    fn lane_leads(&self) -> bool {
        match (self.lane.front(), self.heap.first()) {
            (Some(front), Some(root)) => {
                (front.time.order_bits(), front.seq) < (root.time, root.seq)
            }
            (front, _) => front.is_some(),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        if self.lane_leads() {
            self.lane.pop_front()
        } else {
            self.pop_heap()
        }
    }

    fn pop_heap(&mut self) -> Option<Event<M>> {
        let root = *self.heap.first()?;
        // `first()` just returned, so the heap is non-empty and neither `?`
        // below can actually bail — written `?`-style to keep panicking
        // branches off the dispatch hot path.
        let last = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let slot = &mut self.slots[root.slot as usize];
        debug_assert!(slot.is_some(), "heap key references a filled slot");
        let event = slot.take()?;
        self.free.push(root.slot);
        Some(event)
    }

    /// Removes and returns the earliest event if its timestamp is `<= limit`;
    /// leaves the queue untouched otherwise.  This is the single-traversal
    /// primitive the simulation loop uses instead of a separate
    /// peek-then-pop.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<Event<M>> {
        if self.lane_leads() {
            if self.lane.front()?.time.order_bits() > limit.order_bits() {
                return None;
            }
            self.lane.pop_front()
        } else {
            if self.heap.first()?.time > limit.order_bits() {
                return None;
            }
            self.pop_heap()
        }
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane_leads() {
            return self.lane.front().map(|e| e.time);
        }
        // The key maps −0.0 to +0.0; the event keeps the time as scheduled.
        let root = self.heap.first()?;
        self.slots[root.slot as usize].as_ref().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Total number of events ever scheduled through this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// How many of [`Self::scheduled_total`] went through the FIFO lane.
    #[must_use]
    pub fn laned_total(&self) -> u64 {
        self.laned_total
    }

    /// Corrupting test double: rewrites the earliest pending event's
    /// timestamp to `new_time` **without** restoring heap or lane order,
    /// emulating a scheduler bug that delivers an event from the past.  The
    /// earliest event is rewritten wherever it lives, lane front or heap
    /// root.  Returns `false` on an empty queue.  Only exists so the
    /// invariant tests can prove the engine's time-monotonicity check
    /// fires; never compiled into normal builds.
    #[cfg(feature = "invariants")]
    pub fn corrupt_earliest_time(&mut self, new_time: SimTime) -> bool {
        if self.lane_leads() {
            if let Some(front) = self.lane.front_mut() {
                front.time = new_time;
            }
            return true;
        }
        let Some(root) = self.heap.first() else {
            return false;
        };
        if let Some(event) = self.slots[root.slot as usize].as_mut() {
            event.time = new_time;
        }
        self.heap[0].time = new_time.order_bits();
        true
    }

    /// Drops every pending event, e.g. when a run is aborted at its horizon.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.lane.clear();
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / D;
            if self.heap[idx].earlier_than(&self.heap[parent]) {
                self.heap.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        let len = self.heap.len();
        loop {
            let first_child = idx * D + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let last_child = (first_child + D).min(len);
            for child in first_child + 1..last_child {
                if self.heap[child].earlier_than(&self.heap[best]) {
                    best = child;
                }
            }
            if self.heap[best].earlier_than(&self.heap[idx]) {
                self.heap.swap(idx, best);
                idx = best;
            } else {
                break;
            }
        }
    }
}

/// The pre-overhaul future-event list: a `BinaryHeap` whose entries carry
/// the whole `Event<M>`, so every sift memmoves the full payload.
///
/// Retained purely as the comparison baseline for the event-queue micro
/// benches and `bench_perf` — the engine itself uses [`EventQueue`].  Both
/// implementations deliver identical event orderings (a differential test
/// asserts it), so the layout decision is driven by measured numbers.
pub struct BinaryHeapEventQueue<M> {
    heap: BinaryHeap<HeapEntry<M>>,
    next_seq: u64,
}

struct HeapEntry<M> {
    event: Event<M>,
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.event.time == other.event.time && self.event.seq == other.event.seq
    }
}
impl<M> Eq for HeapEntry<M> {}

impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest time (then lowest seq) is the "greatest" entry so
        // that BinaryHeap::pop returns it first.
        other
            .event
            .time
            .cmp(&self.event.time)
            .then_with(|| other.event.seq.cmp(&self.event.seq))
    }
}

impl<M> Default for BinaryHeapEventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> BinaryHeapEventQueue<M> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        BinaryHeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapEventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules an event, assigning the next sequence number.
    pub fn push(&mut self, mut event: Event<M>) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop().map(|e| e.event)
    }

    /// Returns the timestamp of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.event.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityId;
    use crate::event::EventKind;

    fn event(t: f64, payload: u32) -> Event<u32> {
        Event {
            time: SimTime::new(t),
            seq: 0,
            src: EntityId::new(0),
            dst: EntityId::new(0),
            kind: EventKind::Message,
            payload,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(event(5.0, 1));
        q.push(event(1.0, 2));
        q.push(event(3.0, 3));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(event(7.0, i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(event(2.0, 0));
        q.push(event(1.0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        // scheduled_total is cumulative and unaffected by clear().
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn sequence_numbers_are_assigned_by_queue() {
        let mut q = EventQueue::new();
        let mut e = event(1.0, 9);
        e.seq = 999; // should be overwritten
        q.push(e);
        q.push(event(1.0, 10));
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(second.seq, 1);
        assert_eq!(first.payload, 9);
    }

    #[test]
    fn pop_at_or_before_respects_the_limit() {
        let mut q = EventQueue::new();
        q.push(event(5.0, 0));
        q.push(event(10.0, 1));
        assert!(q.pop_at_or_before(SimTime::new(4.0)).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_at_or_before(SimTime::new(5.0)).unwrap().payload, 0);
        assert!(q.pop_at_or_before(SimTime::new(9.999)).is_none());
        assert_eq!(q.pop_at_or_before(SimTime::new(10.0)).unwrap().payload, 1);
        assert!(q.pop_at_or_before(SimTime::new(1e9)).is_none());
    }

    #[test]
    fn relative_pushes_of_one_delay_fill_the_lane_and_others_fall_back() {
        let mut q = EventQueue::new();
        q.push(event(1.05, 0)); // absolute: heap, ties with the first send
        q.push_relative(event(1.05, 1), 0.05); // empty lane takes delay 0.05
        q.push_relative(event(1.10, 2), 0.05);
        q.push_relative(event(3.0, 3), 2.0); // other delay: heap
        q.push_relative(event(1.07, 4), 0.05); // before the back: heap
        q.push_relative(event(1.10, 5), 0.05); // ties the back: lane
        assert_eq!((q.len(), q.laned_total(), q.scheduled_total()), (6, 3, 6));
        assert_eq!(q.peek_time(), Some(SimTime::new(1.05)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![0, 1, 4, 2, 5, 3]);
        // Once drained, the lane takes the delay of the next relative push.
        q.push_relative(event(5.0, 6), 2.0);
        q.push_relative(event(7.0, 7), 2.0);
        assert_eq!(q.laned_total(), 5);
        assert!(q.pop_at_or_before(SimTime::new(4.0)).is_none());
        assert_eq!(q.pop_at_or_before(SimTime::new(5.0)).unwrap().payload, 6);
        q.clear();
        assert!(q.is_empty() && q.peek_time().is_none());
    }

    #[test]
    fn slots_are_recycled_under_churn() {
        let mut q = EventQueue::new();
        for round in 0..50u32 {
            for i in 0..8u32 {
                q.push(event(f64::from(round * 10 + i % 3), i));
            }
            for _ in 0..8 {
                assert!(q.pop().is_some());
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 400);
    }

    #[test]
    fn dary_and_binary_heap_layouts_deliver_identical_orderings() {
        // The layout decision must never change delivery order: feed the
        // same pseudo-random schedule to both queues (interleaving pushes
        // and pops to exercise slot recycling) and require identical output.
        let mut dary = EventQueue::new();
        let mut binary = BinaryHeapEventQueue::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut out_dary = Vec::new();
        let mut out_binary = Vec::new();
        for i in 0..500u32 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let t = f64::from((state >> 33) as u32 % 97);
            dary.push(event(t, i));
            binary.push(event(t, i));
            if state % 3 == 0 {
                out_dary.push(dary.pop().map(|e| (e.time, e.seq, e.payload)));
                out_binary.push(binary.pop().map(|e| (e.time, e.seq, e.payload)));
            }
        }
        while let Some(e) = dary.pop() {
            out_dary.push(Some((e.time, e.seq, e.payload)));
        }
        while let Some(e) = binary.pop() {
            out_binary.push(Some((e.time, e.seq, e.payload)));
        }
        assert_eq!(out_dary, out_binary);
    }
}
