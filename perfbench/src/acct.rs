//! Failure-honest request accounting.
//!
//! Every generator in the benchmark reports each request to one shared
//! [`Acct`]: when it fell due, when it was written to a connection, and
//! when its response completed. The measured window is fixed before the
//! run starts, so the accounting needs no cooperation from the program
//! under test:
//!
//! * a request is *attempted* when its due time falls in the window;
//! * it *completes* only if its response arrived by the drain deadline;
//! * everything else — shed by the generator, still queued, still in
//!   flight, or waiting on a connection that never established — has
//!   *failed*, and enters the latency distribution censored at
//!   `deadline − due`, which exceeds any latency limit shorter than the
//!   drain, so it counts as a miss in every percentile and SLA test.

/// Sentinel for "never happened" in a request record.
pub const NEVER: u64 = u64::MAX;

/// One in-window request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// When the request fell due (open loop: its scheduled arrival;
    /// closed loop: when the client fired it).
    pub due: u64,
    /// When it was written to a connection ([`NEVER`] if it was not).
    pub issued: u64,
    /// When its response completed ([`NEVER`] if it did not).
    pub done: u64,
    /// Payload bytes moved in both directions once complete.
    pub bytes: u64,
}

/// Shared request ledger for one measured window.
#[derive(Debug)]
pub struct Acct {
    /// Window start (inclusive), virtual ns.
    pub win_start: u64,
    /// Window end (exclusive), virtual ns.
    pub win_end: u64,
    /// Drain deadline: responses after this count as failures.
    pub deadline: u64,
    /// Requests due inside the window, in due-processing order.
    pub reqs: Vec<Req>,
    /// Requests that fell due, over the whole run.
    pub due_total: u64,
    /// Requests completed, over the whole run (the host-cost op count).
    pub done_total: u64,
    /// Requests shed by a generator, over the whole run.
    pub shed_total: u64,
    /// Connections the workload dials.
    pub dials: u64,
    /// Dials that established.
    pub established: u64,
}

/// Token a generator keeps with a request: the ledger index when the
/// request is in the window.
pub type Tok = Option<u32>;

impl Acct {
    /// A ledger for the window `[win_start, win_end)` drained at
    /// `deadline`.
    pub fn new(win_start: u64, win_end: u64, deadline: u64) -> Acct {
        assert!(win_start < win_end && win_end <= deadline, "bad window");
        Acct {
            win_start,
            win_end,
            deadline,
            reqs: Vec::new(),
            due_total: 0,
            done_total: 0,
            shed_total: 0,
            dials: 0,
            established: 0,
        }
    }

    /// A request fell due at `due`.
    pub fn due(&mut self, due: u64) -> Tok {
        self.due_total += 1;
        if due < self.win_start || due >= self.win_end {
            return None;
        }
        self.reqs.push(Req {
            due,
            issued: NEVER,
            done: NEVER,
            bytes: 0,
        });
        Some(u32::try_from(self.reqs.len() - 1).expect("window holds < 2^32 requests"))
    }

    /// The generator dropped a request instead of queueing it.
    pub fn shed(&mut self) {
        self.shed_total += 1;
    }

    /// The request was written to a connection at `at`.
    pub fn issued(&mut self, tok: Tok, at: u64) {
        if let Some(i) = tok {
            self.reqs[i as usize].issued = at;
        }
    }

    /// The request's response completed at `at`, having moved `bytes`
    /// of payload in both directions.
    pub fn done(&mut self, tok: Tok, at: u64, bytes: u64) {
        self.done_total += 1;
        if let Some(i) = tok {
            let r = &mut self.reqs[i as usize];
            r.done = at;
            r.bytes = bytes;
        }
    }

    /// Requests fallen due but neither completed nor shed: the
    /// generator's backlog plus everything in flight.
    pub fn outstanding(&self) -> u64 {
        self.due_total - self.done_total - self.shed_total
    }

    /// Evaluates the window. Call once the clock has passed the
    /// deadline.
    pub fn evaluate(&self) -> Window {
        evaluate(&self.reqs, self.win_end - self.win_start, self.deadline)
    }
}

/// The virtual outcome of one measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Requests due in the window.
    pub attempted: u64,
    /// Of those, completed by the deadline.
    pub completed: u64,
    /// Latency (done − due, ns) of every attempted request, failures
    /// censored at `deadline − due`; sorted ascending.
    pub latencies: Vec<u64>,
    /// Generator lag (issued − due, ns) of every issued request, sorted.
    pub lags: Vec<u64>,
    /// Payload bytes moved by the completed requests.
    pub bytes: u64,
    /// Summed latency of the completed requests, ns.
    pub busy_ns: u64,
    /// Window length, ns.
    pub len_ns: u64,
}

/// See [`Acct::evaluate`].
pub fn evaluate(reqs: &[Req], len_ns: u64, deadline: u64) -> Window {
    let mut latencies = Vec::with_capacity(reqs.len());
    let mut lags = Vec::with_capacity(reqs.len());
    let (mut completed, mut bytes, mut busy_ns) = (0, 0, 0);
    for r in reqs {
        if r.done <= deadline {
            completed += 1;
            bytes += r.bytes;
            busy_ns += r.done - r.due;
            latencies.push(r.done - r.due);
        } else {
            latencies.push(deadline - r.due);
        }
        if r.issued != NEVER {
            lags.push(r.issued - r.due);
        }
    }
    latencies.sort_unstable();
    lags.sort_unstable();
    Window {
        attempted: reqs.len() as u64,
        completed,
        latencies,
        lags,
        bytes,
        busy_ns,
        len_ns,
    }
}

/// Nearest-rank quantile of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it. Zero when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl Window {
    /// Requests that failed (see the module docs).
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }

    /// Completed requests per second of window, in thousands.
    pub fn krps(&self) -> f64 {
        self.completed as f64 / self.len_ns as f64 * 1e6
    }

    /// Latency quantile in µs, failures counted as misses.
    pub fn latency_us(&self, q: f64) -> f64 {
        quantile(&self.latencies, q) as f64 / 1e3
    }

    /// Payload goodput, both directions, Gbps.
    pub fn goodput_gbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.len_ns as f64
    }

    /// Completed requests per second of their own latency, thousands:
    /// the rate of a closed loop with one request outstanding, measured
    /// without the window edges' quantization (NetPIPE's definition).
    pub fn serial_krps(&self) -> f64 {
        self.completed as f64 / self.busy_ns as f64 * 1e6
    }

    /// Payload goodput over the completed requests' own latency, Gbps
    /// (NetPIPE's definition for one request outstanding).
    pub fn serial_goodput_gbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.busy_ns as f64
    }

    /// Share of the attempted requests that completed within
    /// `limit_ns` of falling due.
    pub fn frac_within(&self, limit_ns: u64) -> f64 {
        self.latencies.partition_point(|&l| l <= limit_ns) as f64 / self.attempted as f64
    }
}

/// The SLA test of one load probe: p99 latency — with failures counted
/// as misses — within `limit_ns`, and no backlog growth across the
/// window beyond `backlog_slack` of the attempted requests.
pub fn meets_sla(w: &Window, limit_ns: u64, backlog_start: u64, backlog_end: u64) -> bool {
    let slack = (w.attempted as f64 * BACKLOG_SLACK).ceil() as u64;
    quantile(&w.latencies, 0.99) <= limit_ns && backlog_end <= backlog_start + slack
}

/// Backlog growth a passing probe may show, as a share of its attempts.
pub const BACKLOG_SLACK: f64 = 0.01;

/// Median of a sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(due: u64, done: u64) -> Req {
        Req {
            due,
            issued: due,
            done,
            bytes: 100,
        }
    }

    #[test]
    fn only_requests_due_in_the_window_are_attempted() {
        let mut a = Acct::new(100, 200, 300);
        assert_eq!(a.due(99), None);
        let t = a.due(100);
        assert_eq!(t, Some(0));
        assert_eq!(a.due(200), None);
        a.done(t, 150, 10);
        a.done(None, 160, 10);
        assert_eq!(a.due_total, 3);
        assert_eq!(a.done_total, 2);
        assert_eq!(a.outstanding(), 1);
        let w = a.evaluate();
        assert_eq!((w.attempted, w.completed, w.failed()), (1, 1, 0));
        assert_eq!(w.latencies, vec![50]);
    }

    #[test]
    fn unfinished_requests_fail_and_count_as_misses() {
        // due 0..4: completed, completed late (after the deadline),
        // in flight, never issued (queued / shed / dead connection).
        let reqs = [
            done(0, 10),
            done(1, 1_000),
            Req {
                due: 2,
                issued: 5,
                done: NEVER,
                bytes: 0,
            },
            Req {
                due: 3,
                issued: NEVER,
                done: NEVER,
                bytes: 0,
            },
        ];
        let w = evaluate(&reqs, 100, 500);
        assert_eq!(w.attempted, 4);
        assert_eq!(w.completed, 1);
        assert_eq!(w.failed(), 3);
        // Failures censored at deadline − due, so they sort above every
        // success that beat the deadline.
        assert_eq!(w.latencies, vec![10, 497, 498, 499]);
        assert_eq!(w.bytes, 100);
        assert_eq!(w.lags, vec![0, 0, 3]);
        // Median and tail land on failures: 3 of 4 missed.
        assert_eq!(quantile(&w.latencies, 0.5), 497);
        assert_eq!(quantile(&w.latencies, 0.99), 499);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&v, 0.999), 999);
        assert_eq!(quantile(&v, 1.0), 1000);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn one_percent_failures_push_p99_past_the_limit() {
        // 990 fast successes, 10 failures: p99 is the 990th value — a
        // success. One more failure moves it onto a miss.
        let mut reqs: Vec<Req> = (0..990).map(|i| done(i, i + 20)).collect();
        reqs.extend((990..1000).map(|i| Req {
            due: i,
            issued: NEVER,
            done: NEVER,
            bytes: 0,
        }));
        let w = evaluate(&reqs, 1_000, 1_000_000);
        assert!(meets_sla(&w, 500, 0, 0));
        reqs[0].done = NEVER;
        let w = evaluate(&reqs, 1_000, 1_000_000);
        assert!(!meets_sla(&w, 500, 0, 0));
    }

    #[test]
    fn growing_backlog_fails_the_sla() {
        let reqs: Vec<Req> = (0..1000).map(|i| done(i, i + 20)).collect();
        let w = evaluate(&reqs, 1_000, 2_000);
        assert!(meets_sla(&w, 500, 40, 50));
        assert!(!meets_sla(&w, 500, 40, 51));
    }

    #[test]
    fn rates_and_goodput() {
        let reqs: Vec<Req> = (0..10).map(|i| done(i, i + 1_000 * i)).collect();
        // 10 completions in 1 ms = 10 krps; 1000 bytes in 1 ms = 8 Mbps.
        let w = evaluate(&reqs, 1_000_000, 10_000_000);
        assert!((w.krps() - 10.0).abs() < 1e-9);
        assert!((w.goodput_gbps() - 0.008).abs() < 1e-12);
        // Latencies 0, 1000, ..., 9000: five are within 4 µs.
        assert!((w.frac_within(4_000) - 0.5).abs() < 1e-12);
        // Back to back they took 45 µs in all.
        assert!((w.serial_krps() - 10.0 / 45.0 * 1e3).abs() < 1e-9);
        assert!((w.serial_goodput_gbps() - 8_000.0 / 45_000.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
