//! The discrete-event scheduler.
//!
//! [`Sim<W>`] owns a hierarchical timer wheel of events; each event is a
//! boxed closure receiving exclusive access to the world `W` and to the
//! scheduler itself (so handlers can schedule follow-up events). Ordering is
//! total: `(time, sequence)` with the sequence number assigned at scheduling
//! time, which makes runs bit-for-bit reproducible.
//!
//! # Why a wheel and not a heap
//!
//! The dominant workload is periodic — poll ticks, service-queue drains and
//! transmits re-arm at fixed offsets — so schedule/fire is the hot path. A
//! binary heap pays `O(log n)` comparisons per operation plus a tombstone
//! set for cancellations (cancelled events stay queued until reached). The
//! wheel pays amortised `O(1)`: eight levels of 64 slots cover 2^48 ns
//! (~78 hours) ahead of the cursor at 1 ns resolution; an event lands in the
//! level addressed by the highest bit in which its time differs from the
//! cursor, and cascades one level down each time the cursor enters its slot.
//! Events beyond the horizon overflow into a `BTreeMap` ordered by
//! `(time, seq)` and are pulled back into the wheel once the cursor gets
//! close. Cancellation removes the entry from its slot in place — no
//! tombstones, so [`Sim::pending`] is exact.
//!
//! Firing order is identical to the old heap: within a level-0 slot all
//! entries share the same timestamp and the minimum sequence number fires
//! first, and any entry at a lower level strictly precedes every entry at a
//! higher level or in the overflow map.
//!
//! # Typed messages
//!
//! Boxed closures are flexible but cost one heap allocation per scheduled
//! event — ruinous on the hot path, where three event kinds (poll tick,
//! service completion, delivery) account for nearly every firing. The
//! second type parameter `Sim<W, M>` admits allocation-free events: plain
//! `M` values queue in the same wheel as closures, under the same
//! sequence counter (so the two kinds fire in exactly the `(time, seq)`
//! order they were scheduled in), and dispatch through
//! [`HandleMsg::handle`] instead of a boxed call. `M` defaults to `()`,
//! for which a blanket [`HandleMsg`] impl exists, so `Sim<W>` users are
//! untouched.

use std::collections::BTreeMap;

use crate::time::{SimDur, SimTime};

/// Identifier of a scheduled event, usable for cancellation. Carries the
/// event's absolute time so cancellation can locate the wheel slot directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    at: u64,
    seq: u64,
}

/// Return value of a periodic handler: keep firing or stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeat {
    /// Re-arm the timer for another period.
    Continue,
    /// Stop; the timer is dropped.
    Stop,
}

type EventFn<W, M> = Box<dyn FnOnce(&mut W, &mut Sim<W, M>)>;
type PeriodicFn<W, M> = Box<dyn FnMut(&mut W, &mut Sim<W, M>) -> Repeat>;

/// Dispatch for typed messages: the world receives each popped `M` with
/// exclusive access to the scheduler, mirroring the closure calling
/// convention. The blanket impl for `M = ()` makes messages invisible to
/// worlds that never use them.
pub trait HandleMsg<M>: Sized {
    /// Handle one message fired at the current simulation time.
    fn handle(&mut self, sim: &mut Sim<Self, M>, msg: M);
}

impl<W> HandleMsg<()> for W {
    fn handle(&mut self, _sim: &mut Sim<Self, ()>, (): ()) {}
}

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels; together they cover `LEVEL_BITS * LEVELS` = 48 bits of
/// nanoseconds (~78 hours) ahead of the cursor.
const LEVELS: usize = 8;

/// Which wheel level an event at `at` belongs to, relative to cursor `cur`:
/// the level containing the highest bit in which the two differ. `LEVELS` or
/// more means "beyond the horizon" (overflow map).
#[inline]
fn level_of(cur: u64, at: u64) -> usize {
    let diff = cur ^ at;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
    }
}

struct Entry<T> {
    at: u64,
    seq: u64,
    f: T,
}

/// The hierarchical timer wheel, generic over the event payload `T` —
/// [`Sim`] queues a boxed closure or a typed message per entry.
///
/// Invariants (checked by debug asserts, relied on by `pop_min_if`):
/// - every pending entry satisfies `at >= cur`;
/// - an entry physically stored at level `l`, slot `i` has all time digits
///   above level `l` equal to the cursor's and digit `l` equal to `i`
///   (strictly greater than the cursor's digit for `l >= 1`), because the
///   cursor can only advance past a slot's window by cascading that slot.
pub(crate) struct Wheel<T> {
    /// Cursor in nanoseconds: lower bound of every pending entry. Never
    /// ahead of `Sim::now` at public API boundaries.
    cur: u64,
    /// `LEVELS * SLOTS` buckets, flat-indexed `level * SLOTS + slot`.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level occupancy bitmaps; bit `i` set iff slot `i` is non-empty.
    occ: [u64; LEVELS],
    /// Events beyond the wheel horizon, ordered by `(at, seq)`.
    overflow: BTreeMap<(u64, u64), T>,
    /// Exact number of pending events (wheel + overflow).
    len: usize,
    /// Scratch buffer recycled through cascades: a cascade swaps the
    /// emptying slot with this buffer instead of `mem::take`-ing it, so
    /// neither the slot nor the drain loses its capacity. Without it a
    /// periodic workload re-allocates every cascaded slot on the next
    /// insert — several heap allocations per fired event.
    spare: Vec<Entry<T>>,
}

impl<T> Wheel<T> {
    pub(crate) fn new() -> Self {
        Wheel {
            cur: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: BTreeMap::new(),
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Put an entry in the level/slot addressed by its time relative to the
    /// current cursor (or the overflow map past the horizon).
    fn place(&mut self, e: Entry<T>) {
        debug_assert!(e.at >= self.cur, "placing an event behind the cursor");
        let l = level_of(self.cur, e.at);
        if l >= LEVELS {
            self.overflow.insert((e.at, e.seq), e.f);
            return;
        }
        let idx = ((e.at >> (LEVEL_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[l * SLOTS + idx].push(e);
        self.occ[l] |= 1 << idx;
    }

    pub(crate) fn insert(&mut self, at: u64, seq: u64, f: T) {
        self.place(Entry { at, seq, f });
        self.len += 1;
    }

    /// Remove the entry `(at, seq)` in place. Returns `false` if it already
    /// fired or was never scheduled.
    pub(crate) fn cancel(&mut self, at: u64, seq: u64) -> bool {
        if at < self.cur {
            return false; // already fired
        }
        let l = level_of(self.cur, at);
        if l >= LEVELS {
            if self.overflow.remove(&(at, seq)).is_some() {
                self.len -= 1;
                return true;
            }
            return false;
        }
        let idx = ((at >> (LEVEL_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
        let slot = &mut self.slots[l * SLOTS + idx];
        if let Some(p) = slot.iter().position(|e| e.seq == seq) {
            slot.swap_remove(p);
            if slot.is_empty() {
                self.occ[l] &= !(1u64 << idx);
            }
            self.len -= 1;
            return true;
        }
        false
    }

    /// Pop the earliest `(at, seq)` event if its time is `<= bound`,
    /// cascading higher-level slots and draining the overflow map as the
    /// cursor advances. The cursor never advances past `bound`.
    pub(crate) fn pop_min_if(&mut self, bound: u64) -> Option<(u64, u64, T)> {
        loop {
            let mut cascaded = false;
            for l in 0..LEVELS {
                let m = self.occ[l];
                if m == 0 {
                    continue;
                }
                let i = m.trailing_zeros() as usize;
                if l == 0 {
                    // Level-0 slots are exact timestamps: prefix from the
                    // cursor, low six bits from the slot index.
                    let at = (self.cur & !(SLOTS as u64 - 1)) | i as u64;
                    debug_assert!(at >= self.cur, "level-0 entry behind cursor");
                    if at > bound {
                        return None;
                    }
                    let slot = &mut self.slots[i];
                    let mut k = 0;
                    for (j, e) in slot.iter().enumerate().skip(1) {
                        if e.seq < slot[k].seq {
                            k = j;
                        }
                    }
                    let e = slot.swap_remove(k);
                    if slot.is_empty() {
                        self.occ[0] &= !(1u64 << i);
                    }
                    debug_assert_eq!(e.at, at, "slot held a mis-addressed entry");
                    self.cur = at;
                    self.len -= 1;
                    return Some((e.at, e.seq, e.f));
                }
                // Lowest occupied level is >= 1: cascade its earliest slot
                // down. Everything in it re-lands at a lower level relative
                // to the advanced cursor.
                let shift = LEVEL_BITS * l as u32;
                let above = shift + LEVEL_BITS;
                let slot_start = (self.cur >> above << above) | ((i as u64) << shift);
                if slot_start > bound {
                    return None;
                }
                debug_assert!(slot_start >= self.cur, "cascade would rewind cursor");
                self.cur = slot_start;
                // Swap the slot with the (empty) spare so both buffers
                // keep their capacity across the cascade.
                let mut v = std::mem::take(&mut self.spare);
                std::mem::swap(&mut v, &mut self.slots[l * SLOTS + i]);
                self.occ[l] &= !(1u64 << i);
                for e in v.drain(..) {
                    self.place(e);
                }
                self.spare = v;
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // The wheel is empty; jump the cursor to the overflow horizon if
            // it is within the bound and pull near entries back in.
            let (&(at, _), _) = self.overflow.first_key_value()?;
            if at > bound {
                return None;
            }
            self.cur = at;
            while let Some((&(a, s), _)) = self.overflow.first_key_value() {
                if level_of(self.cur, a) >= LEVELS {
                    break;
                }
                let f = self
                    .overflow
                    .remove(&(a, s))
                    .expect("peeked overflow entry");
                self.place(Entry { at: a, seq: s, f });
            }
        }
    }
}

/// One queued event: a boxed closure or a typed message.
enum Fired<W, M> {
    Closure(EventFn<W, M>),
    Msg(M),
}

/// A discrete-event simulation over world state `W`, with optional
/// allocation-free typed messages `M` (see the module docs).
pub struct Sim<W, M = ()> {
    now: SimTime,
    seq: u64,
    queue: Wheel<Fired<W, M>>,
    executed: u64,
}

impl<W, M> Default for Sim<W, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, M> Sim<W, M> {
    /// A fresh simulation at time zero with an empty queue.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: Wheel::new(),
            executed: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue. Exact: cancelled events
    /// are removed from their slot in place, not tombstoned.
    pub fn pending(&self) -> usize {
        self.queue.len
    }

    /// Schedule one event under the next sequence number.
    fn insert(&mut self, at: SimTime, ev: Fired<W, M>) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert(at.as_nanos(), seq, ev);
        EventId {
            at: at.as_nanos(),
            seq,
        }
    }

    /// Pop the earliest event at or before `bound`, advance the clock to
    /// it, and run it.
    fn fire_next(&mut self, world: &mut W, bound: u64) -> bool
    where
        W: HandleMsg<M>,
    {
        let Some((at, _seq, fired)) = self.queue.pop_min_if(bound) else {
            return false;
        };
        debug_assert!(at >= self.now.as_nanos(), "event time regressed");
        self.now = SimTime::from_nanos(at);
        self.executed += 1;
        match fired {
            Fired::Closure(f) => f(world, self),
            Fired::Msg(m) => world.handle(self, m),
        }
        true
    }

    /// Total number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Schedule `f` to run at absolute time `at`. Scheduling in the past
    /// (before `now`) panics — that would break causality.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Sim<W, M>) + 'static,
    ) -> EventId {
        self.insert(at, Fired::Closure(Box::new(f)))
    }

    /// Schedule `f` to run `after` from now.
    pub fn schedule_in(
        &mut self,
        after: SimDur,
        f: impl FnOnce(&mut W, &mut Sim<W, M>) + 'static,
    ) -> EventId {
        let at = self.now + after;
        self.schedule_at(at, f)
    }

    /// Schedule a typed message for delivery at absolute time `at` — the
    /// allocation-free twin of [`Sim::schedule_at`]. Messages and
    /// closures share one queue and one sequence counter, so they fire in
    /// exactly their combined scheduling order.
    pub fn schedule_msg_at(&mut self, at: SimTime, msg: M) -> EventId {
        self.insert(at, Fired::Msg(msg))
    }

    /// Schedule a typed message for delivery `after` from now.
    pub fn schedule_msg_in(&mut self, after: SimDur, msg: M) -> EventId {
        let at = self.now + after;
        self.schedule_msg_at(at, msg)
    }

    /// Cancel a previously scheduled event (closure or message). Returns
    /// `true` if the event had not yet fired; the entry is removed from
    /// its wheel slot immediately.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.seq >= self.seq {
            return false;
        }
        self.queue.cancel(id.at, id.seq)
    }

    /// Schedule a periodic handler. The first firing happens at `start`;
    /// subsequent firings every `period` until the handler returns
    /// [`Repeat::Stop`]. Returns the id of the *first* firing; cancelling it
    /// stops the whole series (re-armed firings inherit cancellation by
    /// checking a shared flag is unnecessary because each re-arm happens only
    /// after a successful firing).
    pub fn schedule_periodic(
        &mut self,
        start: SimTime,
        period: SimDur,
        f: impl FnMut(&mut W, &mut Sim<W, M>) -> Repeat + 'static,
    ) -> EventId
    where
        W: 'static,
        M: 'static,
    {
        assert!(!period.is_zero(), "periodic event with zero period");
        self.schedule_at(start, tick(period, Box::new(f)))
    }

    /// Run events until the queue is exhausted or the clock passes `until`.
    /// The clock is left at the time of the last executed event (or `until`
    /// if no event at/before `until` existed — the clock then advances to
    /// `until`). Returns the number of events executed.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) -> u64
    where
        W: HandleMsg<M>,
    {
        let mut n = 0;
        while self.fire_next(world, until.as_nanos()) {
            n += 1;
        }
        if self.now < until {
            self.now = until;
        }
        n
    }

    /// Run events for `dur` from the current time. See [`Sim::run_until`].
    pub fn run_for(&mut self, world: &mut W, dur: SimDur) -> u64
    where
        W: HandleMsg<M>,
    {
        let until = self.now + dur;
        self.run_until(world, until)
    }

    /// Run until the queue is empty or `max_events` have executed.
    /// Returns the number of events executed.
    pub fn run_to_completion(&mut self, world: &mut W, max_events: u64) -> u64
    where
        W: HandleMsg<M>,
    {
        let mut n = 0;
        while n < max_events && self.fire_next(world, u64::MAX) {
            n += 1;
        }
        n
    }
}

/// Build the self-re-arming closure for a periodic event.
fn tick<W: 'static, M: 'static>(
    period: SimDur,
    mut f: PeriodicFn<W, M>,
) -> impl FnOnce(&mut W, &mut Sim<W, M>) {
    move |w, sim| {
        if f(w, sim) == Repeat::Continue {
            sim.schedule_in(period, tick(period, f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        sim.schedule_at(SimTime::from_millis(20), |w: &mut W, s: &mut Sim<W>| {
            w.log.push((s.now().as_millis(), "b"));
        });
        sim.schedule_at(SimTime::from_millis(10), |w: &mut W, s: &mut Sim<W>| {
            w.log.push((s.now().as_millis(), "a"));
        });
        sim.schedule_at(SimTime::from_millis(30), |w: &mut W, s: &mut Sim<W>| {
            w.log.push((s.now().as_millis(), "c"));
        });
        let n = sim.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(n, 3);
        assert_eq!(w.log, vec![(10, "a"), (20, "b"), (30, "c")]);
        // Clock advances to `until` when the queue drains early.
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        let t = SimTime::from_millis(5);
        sim.schedule_at(t, |w: &mut W, _: &mut Sim<W>| w.log.push((0, "first")));
        sim.schedule_at(t, |w: &mut W, _: &mut Sim<W>| w.log.push((0, "second")));
        sim.run_until(&mut w, t);
        assert_eq!(w.log, vec![(0, "first"), (0, "second")]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        sim.schedule_at(SimTime::from_millis(1), |_w: &mut W, s: &mut Sim<W>| {
            s.schedule_in(SimDur::from_millis(1), |w: &mut W, s: &mut Sim<W>| {
                w.log.push((s.now().as_millis(), "child"));
            });
        });
        sim.run_until(&mut w, SimTime::from_millis(10));
        assert_eq!(w.log, vec![(2, "child")]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        let id = sim.schedule_at(SimTime::from_millis(1), |w: &mut W, _: &mut Sim<W>| {
            w.log.push((0, "nope"));
        });
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        sim.run_until(&mut w, SimTime::from_secs(1));
        assert!(w.log.is_empty());
    }

    #[test]
    fn cancel_reaps_in_place() {
        let mut sim: Sim<W> = Sim::new();
        let id = sim.schedule_at(SimTime::from_millis(1), |_: &mut W, _: &mut Sim<W>| {});
        assert_eq!(sim.pending(), 1);
        assert!(sim.cancel(id));
        assert_eq!(sim.pending(), 0, "cancelled entry leaves no tombstone");
    }

    #[test]
    fn periodic_fires_until_stop() {
        struct C {
            count: u32,
        }
        let mut sim: Sim<C> = Sim::new();
        let mut w = C { count: 0 };
        sim.schedule_periodic(
            SimTime::from_secs(1),
            SimDur::from_secs(1),
            |w: &mut C, _s: &mut Sim<C>| {
                w.count += 1;
                if w.count == 5 {
                    Repeat::Stop
                } else {
                    Repeat::Continue
                }
            },
        );
        sim.run_until(&mut w, SimTime::from_secs(100));
        assert_eq!(w.count, 5);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        sim.schedule_at(SimTime::from_secs(10), |w: &mut W, _: &mut Sim<W>| {
            w.log.push((10, "late"));
        });
        let n = sim.run_until(&mut w, SimTime::from_secs(5));
        assert_eq!(n, 0);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run_until(&mut w, SimTime::from_secs(20));
        assert_eq!(w.log.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_past_panics() {
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        sim.schedule_at(SimTime::from_secs(1), |_: &mut W, _: &mut Sim<W>| {});
        sim.run_until(&mut w, SimTime::from_secs(2));
        sim.schedule_at(SimTime::from_millis(500), |_: &mut W, _: &mut Sim<W>| {});
    }

    #[test]
    fn run_to_completion_respects_budget() {
        struct C {
            count: u64,
        }
        let mut sim: Sim<C> = Sim::new();
        let mut w = C { count: 0 };
        // A self-perpetuating event chain.
        sim.schedule_periodic(
            SimTime::ZERO,
            SimDur::from_nanos(1),
            |w: &mut C, _s: &mut Sim<C>| {
                w.count += 1;
                Repeat::Continue
            },
        );
        let n = sim.run_to_completion(&mut w, 1000);
        assert_eq!(n, 1000);
        assert_eq!(w.count, 1000);
    }

    #[derive(Debug, PartialEq, Eq)]
    enum Msg {
        Ping(u32),
    }

    struct MW {
        log: Vec<(u64, String)>,
    }

    impl HandleMsg<Msg> for MW {
        fn handle(&mut self, sim: &mut Sim<Self, Msg>, msg: Msg) {
            let Msg::Ping(k) = msg;
            self.log.push((sim.now().as_millis(), format!("msg{k}")));
            // Handlers may schedule follow-up messages.
            if k == 7 {
                sim.schedule_msg_in(SimDur::from_millis(1), Msg::Ping(8));
            }
        }
    }

    #[test]
    fn typed_messages_interleave_with_closures_by_seq() {
        let mut sim: Sim<MW, Msg> = Sim::new();
        let mut w = MW { log: Vec::new() };
        let t = SimTime::from_millis(10);
        sim.schedule_at(t, |w: &mut MW, s: &mut Sim<MW, Msg>| {
            w.log.push((s.now().as_millis(), "fn0".into()));
        });
        sim.schedule_msg_at(SimTime::from_millis(5), Msg::Ping(1));
        sim.schedule_msg_at(t, Msg::Ping(2));
        sim.schedule_at(t, |w: &mut MW, s: &mut Sim<MW, Msg>| {
            w.log.push((s.now().as_millis(), "fn3".into()));
        });
        assert_eq!(sim.pending(), 4);
        let n = sim.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(n, 4);
        // Same-time entries fire in scheduling order, closures and
        // messages alike.
        let want: Vec<(u64, String)> = vec![
            (5, "msg1".into()),
            (10, "fn0".into()),
            (10, "msg2".into()),
            (10, "fn3".into()),
        ];
        assert_eq!(w.log, want);
    }

    #[test]
    fn typed_messages_cancel_and_chain() {
        let mut sim: Sim<MW, Msg> = Sim::new();
        let mut w = MW { log: Vec::new() };
        let id = sim.schedule_msg_at(SimTime::from_millis(1), Msg::Ping(99));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        assert_eq!(sim.pending(), 0, "cancelled message leaves no tombstone");
        // A handler-scheduled follow-up message fires too.
        sim.schedule_msg_at(SimTime::from_millis(2), Msg::Ping(7));
        sim.run_until(&mut w, SimTime::from_secs(1));
        let want: Vec<(u64, String)> = vec![(2, "msg7".into()), (3, "msg8".into())];
        assert_eq!(w.log, want);
    }

    #[test]
    fn cascaded_slots_keep_capacity() {
        // Drive the cursor through enough cascades that the spare buffer
        // ping-pongs, and check ordering survives (the capacity claim is
        // observable only through the allocator; correctness is what the
        // invariants guarantee).
        let mut w: Wheel<u64> = Wheel::new();
        let mut seq = 0u64;
        let mut expect = Vec::new();
        for i in 0..200u64 {
            let at = i * 1_000_003; // straddles several level boundaries
            w.insert(at, seq, at);
            expect.push(at);
            seq += 1;
        }
        let mut got = Vec::new();
        while let Some((at, _s, v)) = w.pop_min_if(u64::MAX) {
            assert_eq!(at, v);
            got.push(v);
        }
        assert_eq!(got, expect);
        assert_eq!(w.len, 0);
    }

    #[test]
    fn events_past_the_wheel_horizon_still_fire_in_order() {
        // 2^48 ns is the wheel horizon; both sides of it must interleave
        // correctly through the overflow map.
        let mut sim: Sim<W> = Sim::new();
        let mut w = W::default();
        let horizon = 1u64 << 48;
        sim.schedule_at(
            SimTime::from_nanos(horizon + 5),
            |w: &mut W, _: &mut Sim<W>| w.log.push((2, "far")),
        );
        sim.schedule_at(SimTime::from_nanos(7), |w: &mut W, _: &mut Sim<W>| {
            w.log.push((1, "near"))
        });
        let far_cancel = sim.schedule_at(
            SimTime::from_nanos(horizon + 9),
            |w: &mut W, _: &mut Sim<W>| w.log.push((3, "cancelled")),
        );
        assert!(sim.cancel(far_cancel));
        let n = sim.run_until(&mut w, SimTime::from_nanos(2 * horizon));
        assert_eq!(n, 2);
        assert_eq!(w.log, vec![(1, "near"), (2, "far")]);
    }
}
