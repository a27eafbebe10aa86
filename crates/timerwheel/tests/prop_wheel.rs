//! Property tests (ix-testkit harness): the hierarchical wheel agrees with a reference
//! BinaryHeap implementation on what fires, when (to tick resolution),
//! and in what order — under arbitrary schedule/cancel/advance programs;
//! and its bitmap-steered earliest-deadline query always equals the
//! minimum over a shadow map of live deadlines.

use std::collections::{BTreeMap, BinaryHeap};

use ix_testkit::prelude::*;

use ix_timerwheel::{TimerId, TimerWheel, DEFAULT_RESOLUTION_NS};

#[derive(Debug, Clone)]
enum OpKind {
    /// Schedule a timer this many ns out.
    Schedule(u64),
    /// Cancel the k-th still-live timer (mod live count).
    Cancel(usize),
    /// Advance by this many ns.
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        (1u64..50_000_000).prop_map(OpKind::Schedule),
        (0usize..64).prop_map(OpKind::Cancel),
        (1u64..5_000_000).prop_map(OpKind::Advance),
    ]
}

#[derive(Debug, PartialEq, Eq)]
struct RefTimer {
    /// Tick deadline (negated for min-heap via Reverse ordering trick).
    deadline_tick: u64,
    seq: u64,
    payload: u64,
}

impl Ord for RefTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: invert so earliest deadline (then earliest seq) pops
        // first.
        other
            .deadline_tick
            .cmp(&self.deadline_tick)
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for RefTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

props! {
    #![config(cases = 64)]

    #[test]
    fn wheel_matches_reference(ops in collection::vec(op_strategy(), 1..120)) {
        let res = DEFAULT_RESOLUTION_NS;
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut heap: BinaryHeap<RefTimer> = BinaryHeap::new();
        let mut live: Vec<(TimerId, u64)> = Vec::new(); // (id, payload)
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut fired_wheel: Vec<u64> = Vec::new();
        let mut fired_ref: Vec<u64> = Vec::new();

        for op in ops {
            match op {
                OpKind::Schedule(delay) => {
                    seq += 1;
                    let payload = seq;
                    let id = wheel.schedule(delay, payload);
                    live.push((id, payload));
                    // The wheel rounds *up* to the next tick, minimum 1.
                    let ticks = delay.div_ceil(res).max(1);
                    heap.push(RefTimer {
                        deadline_tick: now / res + ticks,
                        seq,
                        payload,
                    });
                }
                OpKind::Cancel(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = k % live.len();
                    let (id, payload) = live.swap_remove(idx);
                    let got = wheel.cancel(id);
                    prop_assert_eq!(got, Some(payload), "live timer must cancel");
                    // Remove from the reference heap.
                    let mut rest: Vec<RefTimer> = heap.drain().collect();
                    let pos = rest.iter().position(|t| t.payload == payload).expect("in ref");
                    rest.swap_remove(pos);
                    heap = rest.into_iter().collect();
                }
                OpKind::Advance(dur) => {
                    now += dur;
                    wheel.advance(now, |p| fired_wheel.push(p));
                    let now_tick = now / res;
                    while let Some(t) = heap.peek() {
                        if t.deadline_tick <= now_tick {
                            let t = heap.pop().expect("peeked");
                            fired_ref.push(t.payload);
                            live.retain(|(_, p)| *p != t.payload);
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        // Drain everything at the end: the wheel and the reference must
        // fire the remaining timers in the same (deadline, seq) order.
        now += 200 * 3_600 * 1_000_000_000u64;
        wheel.advance(now, |p| fired_wheel.push(p));
        while let Some(t) = heap.pop() {
            fired_ref.push(t.payload);
        }
        prop_assert_eq!(wheel.live(), 0, "wheel fully drained");
        prop_assert_eq!(fired_wheel, fired_ref, "fire sequences diverged");
    }

    #[test]
    fn next_deadline_matches_shadow_minimum(ops in collection::vec(shadow_op_strategy(), 1..150)) {
        let res = DEFAULT_RESOLUTION_NS;
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        // payload -> (id, deadline tick) of every live timer.
        let mut shadow: BTreeMap<u64, (TimerId, u64)> = BTreeMap::new();
        // Ids that fired or were cancelled: cancelling them is a no-op.
        let mut dead: Vec<TimerId> = Vec::new();
        let mut now = 0u64;
        let mut next_payload = 0u64;

        for op in ops {
            let now_tick = now / res;
            match op {
                ShadowOp::Schedule(delay) => {
                    next_payload += 1;
                    let id = wheel.schedule(delay, next_payload);
                    shadow.insert(next_payload, (id, now_tick + delay.div_ceil(res).max(1)));
                }
                ShadowOp::ScheduleBatch(delays) => {
                    let first = next_payload + 1;
                    next_payload += delays.len() as u64;
                    let mut ids = Vec::new();
                    wheel.schedule_batch(
                        delays.iter().enumerate().map(|(i, &d)| (d, first + i as u64)),
                        |id| ids.push(id),
                    );
                    prop_assert_eq!(ids.len(), delays.len());
                    for (i, (&d, id)) in delays.iter().zip(ids).enumerate() {
                        shadow.insert(first + i as u64, (id, now_tick + d.div_ceil(res).max(1)));
                    }
                }
                ShadowOp::Cancel(k) => {
                    if shadow.is_empty() {
                        continue;
                    }
                    let payload = *shadow.keys().nth(k % shadow.len()).expect("in range");
                    let (id, _) = shadow.remove(&payload).expect("live");
                    prop_assert_eq!(wheel.cancel(id), Some(payload));
                    dead.push(id);
                }
                ShadowOp::CancelBatch(picks) => {
                    // Live picks (duplicates turn stale after the first
                    // cancel) plus one already-dead id, which must be
                    // skipped silently.
                    let mut ids: Vec<TimerId> = Vec::new();
                    if !shadow.is_empty() {
                        for k in picks {
                            let (_, &(id, _)) = shadow.iter().nth(k % shadow.len()).expect("in range");
                            ids.push(id);
                        }
                    }
                    ids.extend(dead.last().copied());
                    let mut got: Vec<(u64, u64)> = Vec::new();
                    wheel.cancel_batch(ids.iter().copied(), |p, rem| got.push((p, rem)));
                    for (payload, remaining) in got {
                        let (id, deadline) = shadow.remove(&payload).expect("cancelled a live timer");
                        prop_assert_eq!(remaining, (deadline - now_tick) * res);
                        dead.push(id);
                    }
                    for id in ids {
                        prop_assert!(!shadow.values().any(|&(live, _)| live == id), "batch skipped a live id");
                    }
                }
                ShadowOp::Advance(dur) | ShadowOp::AdvanceLong(dur) => {
                    now += dur;
                    let now_tick = now / res;
                    let mut fired: Vec<u64> = Vec::new();
                    wheel.advance(now, |p| fired.push(p));
                    for payload in fired {
                        let (id, deadline) = shadow.remove(&payload).expect("fired a live timer");
                        prop_assert!(deadline <= now_tick, "fired early");
                        dead.push(id);
                    }
                    prop_assert!(shadow.values().all(|&(_, d)| d > now_tick), "a due timer did not fire");
                }
            }
            let now_tick = now / res;
            let want = shadow.values().map(|&(_, d)| (d - now_tick) * res).min();
            prop_assert_eq!(wheel.next_deadline_ns(), want);
            prop_assert_eq!(wheel.live(), shadow.len());
            prop_assert!(wheel.occupancy_consistent(), "occupancy bitmap out of sync with the slots");
        }
    }
}

#[derive(Debug, Clone)]
enum ShadowOp {
    Schedule(u64),
    ScheduleBatch(Vec<u64>),
    /// Cancel the k-th live timer (mod live count).
    Cancel(usize),
    /// Cancel a batch of picks (mod live count each).
    CancelBatch(Vec<usize>),
    /// A short advance, stepped tick by tick.
    Advance(u64),
    /// An advance past the wheel's jump threshold (1,024 ticks), taking
    /// the skip-ahead path.
    AdvanceLong(u64),
}

/// Delays across all four levels and beyond the top level's ~19-hour
/// span (parked in the top level and relinked on each lap).
fn delay_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 1u64..5_000_000,
        3 => 5_000_000u64..100_000_000_000,
        1 => 60_000_000_000_000u64..200_000_000_000_000,
    ]
}

fn shadow_op_strategy() -> impl Strategy<Value = ShadowOp> {
    prop_oneof![
        4 => delay_strategy().prop_map(ShadowOp::Schedule),
        1 => collection::vec(delay_strategy(), 0..12).prop_map(ShadowOp::ScheduleBatch),
        3 => (0usize..64).prop_map(ShadowOp::Cancel),
        1 => collection::vec(0usize..64, 0..6).prop_map(ShadowOp::CancelBatch),
        3 => (1u64..4_000_000).prop_map(ShadowOp::Advance),
        1 => (16_400_000u64..100_000_000_000_000).prop_map(ShadowOp::AdvanceLong),
    ]
}
