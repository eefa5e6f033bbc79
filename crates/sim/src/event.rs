//! The event queue: a deterministic priority queue of scheduled events.
//!
//! Determinism requires total order: events at equal instants are ordered
//! by their scheduling sequence number, so a run never depends on hash
//! ordering or allocation addresses (DESIGN.md §7).
//!
//! [`EventQueue`] is a two-tier calendar queue. A ring of `RING_SIZE`
//! per-tick FIFO buckets covers the near future — the dominant traffic,
//! since delays and timer periods are a handful of ticks — giving O(1)
//! schedule and pop. Events beyond the ring land in an overflow binary
//! heap and migrate into buckets as the ring slides forward.
//!
//! It pops the exact `(time, seq, event)` sequence of the classical
//! `BinaryHeap<(time, seq)>` it replaced. The unit tests keep that heap
//! as an oracle (`HeapQueue`) and check the whole kernel-facing API
//! against it op for op.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::Time;

use crate::snapshot::StableHasher;

/// Identifier of a pending timer, unique within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// The raw counter value — stable within a run, so actors can absorb
    /// stored timer ids into state fingerprints.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// An event awaiting dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A message arriving at `to`.
    Deliver {
        /// Original sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// When the message was handed to the network — lets the kernel
        /// report in-flight latency to observability sinks at delivery.
        sent: Time,
        /// Causal annotation: the id of the send event that put this
        /// message in flight (`0` = injected by the environment). Purely
        /// observational — excluded from fingerprints, never branches
        /// dispatch.
        cause: u64,
        /// Payload.
        msg: M,
    },
    /// A timer set by `pid` expiring.
    Timer {
        /// The process that set the timer.
        pid: ProcessId,
        /// Which timer.
        timer: TimerId,
        /// Causal annotation: the id of the event whose callback set the
        /// timer (`0` = set outside any dispatch). Observational only.
        cause: u64,
    },
    /// A churn-driver wake-up.
    ChurnTick,
}

impl<M> Event<M> {
    /// The payload-free summary of this event used by [`SchedulePolicy`].
    fn ready_kind(&self) -> ReadyKind {
        match self {
            Event::Deliver { from, to, .. } => ReadyKind::Deliver { from: *from, to: *to },
            Event::Timer { pid, .. } => ReadyKind::Timer { pid: *pid },
            Event::ChurnTick => ReadyKind::ChurnTick,
        }
    }
}

/// Payload-free classification of a ready event, enough for a
/// [`SchedulePolicy`] to reason about commutativity (which process the
/// dispatch will touch) without seeing the message itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyKind {
    /// A message delivery.
    Deliver {
        /// Original sender.
        from: ProcessId,
        /// Destination (the actor the dispatch mutates).
        to: ProcessId,
    },
    /// A timer expiry at `pid`.
    Timer {
        /// The timer's owner (the actor the dispatch mutates).
        pid: ProcessId,
    },
    /// A churn-driver wake-up (may mutate membership and topology).
    ChurnTick,
}

impl ReadyKind {
    /// The process the dispatch will run at, when the event is local to
    /// one process (`None` for [`ReadyKind::ChurnTick`], which may touch
    /// anything).
    pub fn target(&self) -> Option<ProcessId> {
        match self {
            ReadyKind::Deliver { to, .. } => Some(*to),
            ReadyKind::Timer { pid } => Some(*pid),
            ReadyKind::ChurnTick => None,
        }
    }
}

/// One entry of the ready set: an event dispatchable at the earliest
/// pending instant. `seq` is the queue's tie-breaking sequence number —
/// stable across replays of the same prefix, which is what lets schedule
/// explorers identify "the same event" across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadySummary {
    /// Scheduling sequence number (the default dispatch order).
    pub seq: u64,
    /// What dispatching the event will do.
    pub kind: ReadyKind,
}

/// A pluggable tie-breaker over same-instant events — the controlled
/// nondeterminism hook of the kernel.
///
/// The default (no policy installed) dispatches ready events in `(time,
/// seq)` order; a policy sees the full ready set (every event pending at
/// the earliest instant, in seq order) and returns the index to dispatch
/// next. Index 0 reproduces the default order, so a policy that always
/// answers 0 changes nothing. The policy is only consulted when the ready
/// set holds more than one event — a genuine scheduling choice.
///
/// `epoch` is the world's mutation epoch: it increments whenever
/// membership or topology changes, letting explorers conservatively
/// invalidate commutativity assumptions across such boundaries.
pub trait SchedulePolicy {
    /// Picks which of `ready` (length ≥ 2, seq order) to dispatch next.
    /// Out-of-range answers are clamped to the last index.
    fn choose(&mut self, now: Time, epoch: u64, ready: &[ReadySummary]) -> usize;

    /// Called instead of [`SchedulePolicy::choose`] when exactly one event
    /// is ready — no choice exists, but explorers that track commutativity
    /// (sleep sets) need to see *every* dispatched event, not just the
    /// branching ones, to wake sleeping events a forced step conflicts
    /// with. The default does nothing.
    fn observe(&mut self, now: Time, epoch: u64, only: &ReadySummary) {
        let _ = (now, epoch, only);
    }
}

impl<M> Event<M> {
    /// This event's digest as a pending entry of a queue fingerprint: the
    /// instant, the seq, a discriminant, the routing fields, and the
    /// payload via `msg_fp`. The `cause` annotation is deliberately
    /// excluded: it never influences dispatch, so states differing only
    /// in causal bookkeeping stay mergeable under exploration dedup.
    fn pending_digest(&self, at: Time, seq: u64, msg_fp: fn(&M, &mut StableHasher)) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(at.as_ticks());
        h.write_u64(seq);
        match self {
            Event::Deliver { from, to, sent, msg, .. } => {
                h.write_u8(0);
                h.write_u64(from.as_raw());
                h.write_u64(to.as_raw());
                h.write_u64(sent.as_ticks());
                msg_fp(msg, &mut h);
            }
            Event::Timer { pid, timer, .. } => {
                h.write_u8(1);
                h.write_u64(pid.as_raw());
                h.write_u64(timer.0);
            }
            Event::ChurnTick => h.write_u8(2),
        }
        h.finish()
    }
}

/// An event with its dispatch instant and tie-breaking sequence number.
#[derive(Debug, Clone)]
struct Scheduled<M> {
    at: Time,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Scheduled<M> {}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Number of per-tick buckets in the calendar ring. Delays, timer periods
/// and churn windows in every experiment are well under this; only
/// deliberately far-future schedules (long deadlines, generous timeouts)
/// touch the overflow heap.
const RING_SIZE: u64 = 128;

/// The deterministic event queue: a sliding window of per-tick FIFO
/// buckets plus an overflow heap for events beyond the window.
///
/// Invariants:
/// * every event in bucket `t % RING_SIZE` has tick `t` with
///   `cursor <= t < cursor + RING_SIZE`; `cursor` moves back only when an
///   event is scheduled before it (`rewind_to`).
/// * the overflow heap only holds events with tick `>= cursor + RING_SIZE`;
///   whenever `cursor` advances, newly covered events migrate into their
///   buckets (in `(time, seq)` order, so bucket FIFO order equals seq
///   order — migrated events were necessarily scheduled before any event
///   scheduled directly into the same bucket).
#[derive(Clone)]
pub struct EventQueue<M> {
    buckets: Vec<VecDeque<(u64, Event<M>)>>,
    /// The earliest tick the ring can currently hold.
    cursor: u64,
    /// Events held in the ring (the rest are in `overflow`).
    ring_len: usize,
    overflow: BinaryHeap<Scheduled<M>>,
    next_seq: u64,
}

impl<M> fmt::Debug for EventQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..RING_SIZE).map(|_| VecDeque::new()).collect(),
            cursor: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    #[inline]
    fn bucket_index(tick: u64) -> usize {
        (tick % RING_SIZE) as usize
    }

    /// Schedules `event` for dispatch at `at`.
    pub fn schedule(&mut self, at: Time, event: Event<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, event);
    }

    /// Files an event under an already-assigned seq.
    fn insert(&mut self, at: Time, seq: u64, event: Event<M>) {
        let tick = at.as_ticks();
        if tick < self.cursor {
            self.rewind_to(tick);
        }
        if tick < self.cursor + RING_SIZE {
            self.buckets[Self::bucket_index(tick)].push_back((seq, event));
            self.ring_len += 1;
        } else {
            self.overflow.push(Scheduled { at, seq, event });
        }
    }

    /// Slides the window start to `tick` and pulls every overflow event the
    /// wider window now covers into its bucket.
    fn advance_to(&mut self, tick: u64) {
        debug_assert!(tick >= self.cursor);
        self.cursor = tick;
        let end = self.cursor + RING_SIZE;
        while self
            .overflow
            .peek()
            .is_some_and(|s| s.at.as_ticks() < end)
        {
            let s = self.overflow.pop().expect("peeked");
            self.buckets[Self::bucket_index(s.at.as_ticks())].push_back((s.seq, s.event));
            self.ring_len += 1;
        }
    }

    /// Slides the window start back to `tick`, returning every ring event
    /// the narrower window no longer covers to the overflow heap.
    ///
    /// Inspecting the ready set (or a `pop_nth` out of its range) moves
    /// the window to the earliest pending instant, which may lie past the
    /// kernel's clock; an event then scheduled between the clock and that
    /// instant must still dispatch at its own instant.
    #[cold]
    fn rewind_to(&mut self, tick: u64) {
        let end = tick + RING_SIZE;
        for t in end.max(self.cursor)..self.cursor + RING_SIZE {
            let bucket = &mut self.buckets[Self::bucket_index(t)];
            self.ring_len -= bucket.len();
            self.overflow.extend(
                bucket
                    .drain(..)
                    .map(|(seq, event)| Scheduled { at: Time::from_ticks(t), seq, event }),
            );
        }
        self.cursor = tick;
    }

    /// The tick of the earliest pending event, scanning the ring from the
    /// cursor (the overflow heap cannot beat a ring event by invariant).
    fn next_tick(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return self.overflow.peek().map(|s| s.at.as_ticks());
        }
        (self.cursor..self.cursor + RING_SIZE)
            .find(|&t| !self.buckets[Self::bucket_index(t)].is_empty())
    }

    /// Advances the window so the earliest pending events sit in their
    /// bucket, returning their tick. `None` when the queue is empty.
    fn settle_front(&mut self) -> Option<u64> {
        if self.ring_len == 0 {
            // Ring empty: jump straight to the earliest overflow tick.
            let tick = self.overflow.peek()?.at.as_ticks();
            self.advance_to(tick);
        }
        let tick = self
            .next_tick()
            .expect("ring_len > 0 guarantees an occupied bucket");
        if tick > self.cursor {
            self.advance_to(tick);
        }
        Some(tick)
    }

    /// Removes and returns the earliest event (FIFO among equal instants).
    pub fn pop(&mut self) -> Option<(Time, Event<M>)> {
        self.pop_nth(0)
    }

    /// Removes and returns the `n`-th event (seq order) among those
    /// pending at the earliest instant — the controlled-nondeterminism
    /// variant of [`EventQueue::pop`]. `pop_nth(0)` is exactly `pop`;
    /// `None` if the queue is empty or `n` is out of the ready set.
    pub fn pop_nth(&mut self, n: usize) -> Option<(Time, Event<M>)> {
        let tick = self.settle_front()?;
        let (_, event) = self.buckets[Self::bucket_index(tick)].remove(n)?;
        self.ring_len -= 1;
        Some((Time::from_ticks(tick), event))
    }

    /// Fills `out` with a summary of every event pending at the earliest
    /// instant, in seq order (the order [`EventQueue::pop`] would drain
    /// them; bucket FIFO order equals seq order by invariant), returning
    /// that instant. Clears `out` and returns `None` on an empty queue.
    pub fn ready_set(&mut self, out: &mut Vec<ReadySummary>) -> Option<Time> {
        out.clear();
        let tick = self.settle_front()?;
        out.extend(
            self.buckets[Self::bucket_index(tick)]
                .iter()
                .map(|(seq, event)| ReadySummary { seq: *seq, kind: event.ready_kind() }),
        );
        Some(Time::from_ticks(tick))
    }

    /// The instant of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.next_tick().map(Time::from_ticks)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// `true` when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence number the next scheduled event will receive.
    ///
    /// Part of a world's deterministic closure: two states with equal
    /// pending events but different counters hand out different seqs to
    /// future events, changing default tie order under exploration.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Visits every pending event (ring then overflow, no particular
    /// order) as `(at, seq, event)`. Ring entries store only their seq —
    /// the dispatch tick is implied by bucket position, so it is
    /// reconstructed from the bucket index relative to the cursor.
    fn for_each(&self, mut f: impl FnMut(Time, u64, &Event<M>)) {
        let base = Self::bucket_index(self.cursor) as u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let tick = self.cursor + (i as u64 + RING_SIZE - base) % RING_SIZE;
            for (seq, event) in bucket {
                f(Time::from_ticks(tick), *seq, event);
            }
        }
        for s in &self.overflow {
            f(s.at, s.seq, &s.event);
        }
    }

    /// Absorbs every pending event into `h`, commutatively.
    ///
    /// Each event is hashed into a fresh hasher — instant, seq, routing
    /// fields, payload (via `msg_fp`) — and the per-event digests are
    /// combined with wrapping addition, so the result is independent of
    /// the internal iteration order (ring vs. overflow placement). Seqs
    /// *are* hashed: they break same-instant ties, so two queues holding
    /// equal events under different seqs are not interchangeable. The
    /// combined digest, the queue length, and the next-seq counter are
    /// then written to `h`.
    pub fn fingerprint(&self, h: &mut StableHasher, msg_fp: fn(&M, &mut StableHasher)) {
        let mut acc = 0u64;
        self.for_each(|at, seq, event| {
            acc = acc.wrapping_add(event.pending_digest(at, seq, msg_fp));
        });
        h.write_u64(acc);
        h.write_usize(self.len());
        h.write_u64(self.next_seq);
    }

    /// Rewrites every pending [`Event::Deliver`] payload through `f`,
    /// visiting events in canonical `(time, seq)` order so RNG-consuming
    /// damage does not depend on ring or overflow placement — the
    /// adversary's [`crate::driver::ChurnAction::ScrambleQueue`]
    /// primitive. Instants, seqs, routing fields and the seq counter are
    /// untouched: only payload bytes change, so the dispatch schedule is
    /// preserved and corruption perturbs protocol state alone. Returns
    /// the number of payloads rewritten.
    pub fn scramble_payloads(&mut self, rng: &mut Rng, f: fn(&mut M, &mut Rng)) -> usize {
        // Drain everything, keeping the cursor (and bucket allocations)
        // where they are; re-inserting in `(time, seq)` order restores
        // the bucket-FIFO-equals-seq invariant exactly.
        let mut pending: Vec<Scheduled<M>> = Vec::with_capacity(self.len());
        let base = Self::bucket_index(self.cursor) as u64;
        for (i, bucket) in self.buckets.iter_mut().enumerate() {
            let tick = self.cursor + (i as u64 + RING_SIZE - base) % RING_SIZE;
            pending.extend(
                bucket
                    .drain(..)
                    .map(|(seq, event)| Scheduled { at: Time::from_ticks(tick), seq, event }),
            );
        }
        self.ring_len = 0;
        pending.extend(std::mem::take(&mut self.overflow).into_vec());
        pending.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.seq.cmp(&b.seq)));
        let mut scrambled = 0;
        for mut s in pending {
            if let Event::Deliver { msg, .. } = &mut s.event {
                f(msg, rng);
                scrambled += 1;
            }
            self.insert(s.at, s.seq, s.event);
        }
        scrambled
    }

    /// Drops every pending event and rewinds the clock window and sequence
    /// counter to a fresh-queue state, **keeping** every allocation (ring
    /// buckets, heap storage) for the next run — the cross-seed reuse path
    /// of [`crate::world::World::reset`].
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cursor = 0;
        self.ring_len = 0;
        self.overflow.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    fn deliver(to: u64, msg: u32) -> Event<u32> {
        Event::Deliver {
            from: ProcessId::from_raw(0),
            to: ProcessId::from_raw(to),
            sent: t(3),
            cause: 0,
            msg,
        }
    }

    fn msg(e: Event<u32>) -> u32 {
        match e {
            Event::Deliver { msg, .. } => msg,
            _ => unreachable!("only Deliver events carry a payload"),
        }
    }

    fn fp_u32(m: &u32, h: &mut StableHasher) {
        h.write_u32(*m);
    }

    fn scramble_u32(m: &mut u32, rng: &mut Rng) {
        *m = rng.below(1000) as u32;
    }

    fn digest(q: &EventQueue<u32>) -> u64 {
        let mut h = StableHasher::new();
        q.fingerprint(&mut h, fp_u32);
        h.finish()
    }

    #[test]
    fn pops_in_time_then_schedule_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty() && q.peek_time().is_none());
        for (i, at) in [5, 2, 9, 2, 5].into_iter().enumerate() {
            q.schedule(t(at), deliver(0, i as u32));
        }
        assert_eq!((q.len(), q.peek_time()), (5, Some(t(2))));
        assert_eq!(q.pop().map(|(at, e)| (at, msg(e))), Some((t(2), 1)));
        // Scheduled between pending instants, after the first pop.
        q.schedule(t(3), deliver(0, 5));
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(at, e)| (at.as_ticks(), msg(e)))
            .collect();
        assert_eq!(order, vec![(2, 3), (3, 5), (5, 0), (5, 4), (9, 2)]);
    }

    #[test]
    fn far_future_events_overflow_and_come_back() {
        let mut q: EventQueue<u8> = EventQueue::new();
        // Far beyond the ring: must overflow, then migrate back in order.
        q.schedule(t(5 * RING_SIZE), Event::ChurnTick);
        q.schedule(t(1), Event::ChurnTick);
        q.schedule(t(5 * RING_SIZE), Event::ChurnTick);
        q.schedule(t(RING_SIZE + 3), Event::ChurnTick);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap().0, t(1));
        assert_eq!(q.peek_time(), Some(t(RING_SIZE + 3)));
        assert_eq!(q.pop().unwrap().0, t(RING_SIZE + 3));
        assert_eq!(q.pop().unwrap().0, t(5 * RING_SIZE));
        assert_eq!(q.pop().unwrap().0, t(5 * RING_SIZE));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_ties_keep_fifo_order_after_migration() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let far = t(3 * RING_SIZE + 7);
        for i in 0..20u32 {
            q.schedule(far, deliver(0, i));
        }
        let msgs: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| msg(e)).collect();
        assert_eq!(msgs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets_state_but_queue_stays_usable() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(t(3), Event::ChurnTick);
        q.schedule(t(900), Event::ChurnTick);
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.next_seq(), 0);
        // A cleared queue accepts near-past times again (fresh run).
        q.schedule(t(1), Event::ChurnTick);
        assert_eq!(q.pop().unwrap().0, t(1));
    }

    #[test]
    fn scheduling_behind_an_inspected_instant_is_not_delayed() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(t(2), Event::ChurnTick);
        q.schedule(t(50), Event::ChurnTick);
        q.schedule(t(140), Event::ChurnTick);
        assert_eq!(q.pop().unwrap().0, t(2));
        // Inspection slides the window to 50; the clock is still at 2.
        assert_eq!(q.ready_set(&mut Vec::new()), Some(t(50)));
        q.schedule(t(5), Event::ChurnTick);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(at, _)| at.as_ticks())
            .collect();
        assert_eq!(times, vec![5, 50, 140]);
    }

    #[test]
    fn ready_set_lists_the_earliest_cohort_in_seq_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut ready = Vec::new();
        assert_eq!(q.ready_set(&mut ready), None);
        q.schedule(t(5), Event::ChurnTick);
        q.schedule(t(3), deliver(7, 0));
        q.schedule(
            t(3),
            Event::Timer { pid: ProcessId::from_raw(2), timer: TimerId(9), cause: 0 },
        );
        assert_eq!(q.ready_set(&mut ready), Some(t(3)));
        assert_eq!(
            ready,
            vec![
                ReadySummary {
                    seq: 1,
                    kind: ReadyKind::Deliver {
                        from: ProcessId::from_raw(0),
                        to: ProcessId::from_raw(7),
                    },
                },
                ReadySummary { seq: 2, kind: ReadyKind::Timer { pid: ProcessId::from_raw(2) } },
            ]
        );
        // Inspection does not disturb the queue.
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().0, t(3));
    }

    #[test]
    fn pop_nth_reorders_only_within_the_instant() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..3u32 {
            q.schedule(t(3), deliver(i as u64, i));
        }
        q.schedule(t(8), deliver(9, 9));
        // Out of range: the ready set has 3 entries.
        assert!(q.pop_nth(3).is_none());
        assert_eq!(q.len(), 4, "a failed pop_nth must not lose events");
        let (at, e) = q.pop_nth(1).unwrap();
        assert_eq!((at, msg(e)), (t(3), 1));
        assert_eq!(msg(q.pop_nth(1).unwrap().1), 2);
        assert_eq!(msg(q.pop_nth(0).unwrap().1), 0);
        let (at, e) = q.pop().unwrap();
        assert_eq!((at, msg(e)), (t(8), 9));
    }

    #[test]
    fn fingerprint_tracks_the_pending_set() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(t(3), deliver(1, 10));
        q.schedule(t(2 * RING_SIZE), deliver(2, 20)); // overflow
        q.schedule(
            t(3),
            Event::Timer { pid: ProcessId::from_raw(5), timer: TimerId(4), cause: 0 },
        );
        // Popping changes the pending set, so the digest moves.
        let before = digest(&q);
        q.pop();
        assert_ne!(digest(&q), before);
    }

    #[test]
    fn fingerprint_distinguishes_seq_assignment() {
        // Same pending events, scheduled in a different order: the seqs
        // differ, so future same-instant tie-breaking differs, so the
        // digests must differ.
        let mut a: EventQueue<u32> = EventQueue::new();
        a.schedule(t(3), deliver(1, 10));
        a.schedule(t(3), deliver(2, 20));
        let mut b: EventQueue<u32> = EventQueue::new();
        b.schedule(t(3), deliver(2, 20));
        b.schedule(t(3), deliver(1, 10));
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn cloned_queue_pops_identically() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..6u32 {
            q.schedule(t(u64::from(i % 3)), deliver(u64::from(i), i));
        }
        q.schedule(t(4 * RING_SIZE), deliver(9, 99));
        q.pop();
        let mut fork = q.clone();
        assert_eq!(digest(&q), digest(&fork));
        loop {
            let (a, b) = (q.pop(), fork.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn scramble_rewrites_payloads_and_preserves_schedule() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(t(3), deliver(1, 10));
        q.schedule(t(2 * RING_SIZE), deliver(2, 20)); // overflow
        q.schedule(
            t(3),
            Event::Timer { pid: ProcessId::from_raw(5), timer: TimerId(4), cause: 0 },
        );
        q.schedule(t(3), deliver(3, 30));
        let original = q.clone();
        let mut again = q.clone();
        // Only the 3 Deliver payloads are rewritten; the timer is skipped.
        let (mut rng_a, mut rng_b) = (Rng::seeded(11), Rng::seeded(11));
        assert_eq!(q.scramble_payloads(&mut rng_a, scramble_u32), 3);
        assert_eq!(again.scramble_payloads(&mut rng_b, scramble_u32), 3);
        assert_eq!(rng_a.state_words(), rng_b.state_words());
        assert_eq!(digest(&q), digest(&again));
        assert_ne!(digest(&q), digest(&original));
        // The dispatch schedule (times, tie order, routing, seq counter)
        // is intact; only payloads changed.
        assert_eq!(q.next_seq(), 4);
        let shape = |mut q: EventQueue<u32>| {
            std::iter::from_fn(move || q.pop())
                .map(|(at, e)| (at, e.ready_kind()))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(q), shape(original));
    }

    #[test]
    fn ready_kind_targets() {
        assert_eq!(
            ReadyKind::Deliver { from: ProcessId::from_raw(1), to: ProcessId::from_raw(2) }
                .target(),
            Some(ProcessId::from_raw(2))
        );
        assert_eq!(
            ReadyKind::Timer { pid: ProcessId::from_raw(4) }.target(),
            Some(ProcessId::from_raw(4))
        );
        assert_eq!(ReadyKind::ChurnTick.target(), None);
    }

    /// The classical binary-heap queue the calendar replaced: the oracle
    /// the calendar must match op for op.
    #[derive(Clone)]
    struct HeapQueue<M> {
        heap: BinaryHeap<Scheduled<M>>,
        next_seq: u64,
    }

    impl<M> HeapQueue<M> {
        fn new() -> Self {
            HeapQueue { heap: BinaryHeap::new(), next_seq: 0 }
        }

        fn schedule(&mut self, at: Time, event: Event<M>) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { at, seq, event });
        }

        /// Pops the whole earliest-instant cohort (it comes out in seq
        /// order); the caller pushes back what it does not keep.
        fn cohort(&mut self) -> Vec<Scheduled<M>> {
            let mut cohort = Vec::new();
            let Some(at) = self.heap.peek().map(|s| s.at) else {
                return cohort;
            };
            while self.heap.peek().is_some_and(|s| s.at == at) {
                cohort.push(self.heap.pop().expect("peeked"));
            }
            cohort
        }

        fn pop_nth(&mut self, n: usize) -> Option<(Time, Event<M>)> {
            let mut cohort = self.cohort();
            let picked = (n < cohort.len()).then(|| cohort.remove(n));
            self.heap.extend(cohort);
            picked.map(|s| (s.at, s.event))
        }

        fn ready_set(&mut self, out: &mut Vec<ReadySummary>) -> Option<Time> {
            let cohort = self.cohort();
            out.clear();
            out.extend(
                cohort.iter().map(|s| ReadySummary { seq: s.seq, kind: s.event.ready_kind() }),
            );
            let at = cohort.first().map(|s| s.at);
            self.heap.extend(cohort);
            at
        }

        fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|s| s.at)
        }

        /// The digest [`EventQueue::fingerprint`] writes for the same
        /// pending events.
        fn digest(&self, msg_fp: fn(&M, &mut StableHasher)) -> u64 {
            let acc = self.heap.iter().fold(0u64, |acc, s| {
                acc.wrapping_add(s.event.pending_digest(s.at, s.seq, msg_fp))
            });
            let mut h = StableHasher::new();
            h.write_u64(acc);
            h.write_usize(self.heap.len());
            h.write_u64(self.next_seq);
            h.finish()
        }

        fn scramble_payloads(&mut self, rng: &mut Rng, f: fn(&mut M, &mut Rng)) -> usize {
            let mut pending = std::mem::take(&mut self.heap).into_sorted_vec();
            // `into_sorted_vec` ascends by the inverted order: latest first.
            pending.reverse();
            let mut scrambled = 0;
            for s in &mut pending {
                if let Event::Deliver { msg, .. } = &mut s.event {
                    f(msg, rng);
                    scrambled += 1;
                }
            }
            self.heap.extend(pending);
            scrambled
        }

        fn clear(&mut self) {
            self.heap.clear();
            self.next_seq = 0;
        }
    }

    /// One kernel-facing call on a queue.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Schedule an event `delta` ticks after the model clock; `kind`
        /// picks a delivery (to `kind % 4`), a timer or a churn tick.
        Schedule { delta: u64, kind: u8 },
        Pop,
        PopNth(usize),
        ReadySet,
        Scramble(u64),
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Deltas cross the ring boundary (128) in both directions: 0..=20
        // models kernel traffic, the larger bands force overflow migration,
        // including ties deep in the far future. Repeated arms weight the
        // union (the vendored prop_oneof! has no weight syntax).
        let schedule = |lo: u64, hi: u64| {
            (lo..hi, 0u8..6).prop_map(|(delta, kind)| Op::Schedule { delta, kind })
        };
        prop_oneof![
            schedule(0, 21),
            schedule(0, 21),
            schedule(0, 21),
            schedule(120, 141),
            schedule(300, 2001),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Pop),
            (0usize..4).prop_map(Op::PopNth),
            (0usize..4).prop_map(Op::PopNth),
            Just(Op::ReadySet),
            (0u64..1000).prop_map(Op::Scramble),
            Just(Op::Clear),
        ]
    }

    fn event(kind: u8, payload: u32, now: Time) -> Event<u32> {
        match kind {
            0..=3 => Event::Deliver {
                from: ProcessId::from_raw(0),
                to: ProcessId::from_raw(u64::from(kind)),
                sent: now,
                cause: 0,
                msg: payload,
            },
            4 => Event::Timer {
                pid: ProcessId::from_raw(1),
                timer: TimerId(u64::from(payload)),
                cause: 0,
            },
            _ => Event::ChurnTick,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The calendar and the heap oracle agree on every kernel-facing
        /// call: popped events, ready sets, scramble damage, and — after
        /// every op — `len`, `peek_time`, `next_seq`, the fingerprint and
        /// the ready set. The ready set is checked on clones, so the check
        /// itself never slides the calendar's window ahead of the clock.
        #[test]
        fn calendar_matches_heap_oracle(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut cal: EventQueue<u32> = EventQueue::new();
            let mut heap: HeapQueue<u32> = HeapQueue::new();
            // The kernel's clock: it follows pops, and an inspected ready
            // set is always dispatched at its instant.
            let mut now = Time::ZERO;
            let mut payload = 0u32;
            let (mut ready_cal, mut ready_heap) = (Vec::new(), Vec::new());
            for &op in &ops {
                match op {
                    Op::Schedule { delta, kind } => {
                        let at = now + dds_core::time::TimeDelta::ticks(delta);
                        cal.schedule(at, event(kind, payload, now));
                        heap.schedule(at, event(kind, payload, now));
                        payload += 1;
                    }
                    Op::Pop | Op::PopNth(_) => {
                        let (a, b) = match op {
                            Op::PopNth(n) => (cal.pop_nth(n), heap.pop_nth(n)),
                            _ => (cal.pop(), heap.pop_nth(0)),
                        };
                        prop_assert_eq!(&a, &b, "{:?}", op);
                        if let Some((at, _)) = a {
                            now = at;
                        }
                    }
                    Op::ReadySet => {
                        let at = cal.ready_set(&mut ready_cal);
                        prop_assert_eq!(at, heap.ready_set(&mut ready_heap));
                        prop_assert_eq!(&ready_cal, &ready_heap);
                        if let Some(at) = at {
                            now = at;
                        }
                    }
                    Op::Scramble(seed) => {
                        let (mut ra, mut rb) = (Rng::seeded(seed), Rng::seeded(seed));
                        prop_assert_eq!(
                            cal.scramble_payloads(&mut ra, scramble_u32),
                            heap.scramble_payloads(&mut rb, scramble_u32)
                        );
                        prop_assert_eq!(ra.state_words(), rb.state_words());
                    }
                    Op::Clear => {
                        cal.clear();
                        heap.clear();
                        now = Time::ZERO;
                    }
                }
                let seen_cal = (
                    cal.len(),
                    cal.peek_time(),
                    cal.next_seq(),
                    digest(&cal),
                    cal.clone().ready_set(&mut ready_cal),
                    ready_cal.clone(),
                );
                let seen_heap = (
                    heap.heap.len(),
                    heap.peek_time(),
                    heap.next_seq,
                    heap.digest(fp_u32),
                    heap.clone().ready_set(&mut ready_heap),
                    ready_heap.clone(),
                );
                prop_assert_eq!(
                    &seen_cal,
                    &seen_heap,
                    "after {:?}: calendar {:?} vs heap {:?}",
                    op,
                    seen_cal,
                    seen_heap
                );
            }
            // Drain whatever is left so the tail order is compared too.
            loop {
                let (a, b) = (cal.pop(), heap.pop_nth(0));
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
