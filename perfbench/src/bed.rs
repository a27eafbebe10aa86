//! The assembled testbed, the benchmark's own step loop, and the
//! measured window.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use ix_apps::harness::{ServerEngine, Testbed};
use ix_apps::kvstore::StoreRef;
use ix_baselines::linux::LinuxHost;
use ix_core::dataplane::{Dataplane, ThreadRef};
use ix_sim::{SimTime, Simulator};

use crate::acct::{median, Acct, Window};
use crate::calib::{timed, Timed};
use crate::trace::{ClockSnap, Clocks, Spans};

/// Output checks that failed, kept for the report.
#[derive(Debug, Default)]
pub struct Checks {
    /// Failures seen (all of them counted).
    pub failures: u64,
    /// The first few failure messages.
    pub first: Vec<String>,
}

impl Checks {
    /// Records a failed check.
    pub fn fail(&mut self, msg: String) {
        self.failures += 1;
        if self.first.len() < 8 {
            self.first.push(msg);
        }
    }
}

/// Shared handle to the checks.
pub type ChecksRef = Rc<RefCell<Checks>>;

/// Host CPU seconds of the four setup phases, at the reference speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// `Testbed::new`: fabric, hosts, switch.
    pub testbed_s: f64,
    /// Engine launches, app construction and ARP seeding.
    pub launch_s: f64,
    /// Virtual time until the connection ramp is done.
    pub ramp_s: f64,
    /// Virtual time from the ramp to the window opening.
    pub warmup_s: f64,
}

impl Setup {
    /// All four phases.
    pub fn total(&self) -> f64 {
        self.testbed_s + self.launch_s + self.ramp_s + self.warmup_s
    }
}

/// One workload's running testbed, parked at the opening of its window.
pub struct Bed {
    /// Simulator, fabric and the server engine (always IX).
    pub tb: Testbed,
    /// Linux-model client hosts (kept alive: engines hold only weak
    /// references from the NICs).
    pub linux_clients: Vec<LinuxHost>,
    /// Handler threads per Linux client host.
    pub client_threads: usize,
    /// IX client engine (NetPIPE runs IX on both ends).
    pub ix_client: Option<Dataplane>,
    /// The request ledger.
    pub acct: Rc<RefCell<Acct>>,
    /// The KV store, for its lock-wait counter.
    pub store: Option<StoreRef>,
    /// Output checks.
    pub checks: ChecksRef,
    /// Shim clocks when traced.
    pub clocks: Option<Rc<Clocks>>,
    /// Reads the server's libix cap rejections.
    pub server_cap_rejections: fn(&[ThreadRef]) -> u64,
    /// Setup phase timings.
    pub setup: Setup,
}

/// Runs the simulation to exactly virtual time `t` through the
/// benchmark's own `Simulator::step` loop: a marker event at `t` stops
/// the loop once every earlier event has run. Returns the events run.
pub fn drive_to(sim: &mut Simulator, t: u64) -> u64 {
    let hit = Rc::new(Cell::new(false));
    let h = hit.clone();
    sim.schedule_at(SimTime(t), move |_| h.set(true));
    let mut n = 0;
    while !hit.get() {
        sim.step();
        n += 1;
    }
    n
}

impl Bed {
    /// The server engine.
    pub fn server(&self) -> &Dataplane {
        match self.tb.engine.as_ref().expect("server launched") {
            ServerEngine::Ix(d) => d,
            _ => unreachable!("the benchmark's server is always IX"),
        }
    }

    /// Snapshots every counter the per-layer report reads. With
    /// `take_hwm` it also reads and resets the server RX rings' depth
    /// high-water marks (done at the same instants in every run, so
    /// traced and untraced runs stay identical).
    pub fn counters(&self, take_hwm: bool) -> Counters {
        let tb = &self.tb;
        let dp = self.server();
        let server = tb.fabric.host(tb.server);
        let mut c = Counters::default();
        let sc = tb.sim.counters();
        c.sim_executed = sc.executed;
        c.sim_near_inserts = sc.near_inserts;
        c.sim_far_inserts = sc.far_inserts;
        c.sim_pending_hwm = sc.pending_high_water;
        for nic in &server.nics {
            let mut n = nic.borrow_mut();
            c.nic_rx_frames += n.stats.rx_frames;
            c.nic_tx_frames += n.stats.tx_frames;
            c.nic_rx_ring_drops += n.stats.rx_ring_drops;
            if take_hwm {
                for q in 0..dp.threads.len() {
                    c.nic_rx_depth_hwm =
                        c.nic_rx_depth_hwm.max(n.rx_ring(q).take_depth_hwm() as u64);
                }
            }
        }
        c.switch_forwarded = tb.fabric.switch.borrow().stats.forwarded;
        let ds = dp.stats();
        c.dp_iterations = ds.iterations;
        c.dp_events = ds.events;
        c.dp_syscalls = ds.syscalls;
        c.dp_full_batches = ds.full_batches;
        c.dp_batch_sum = ds.batch_sum;
        c.dp_tx_ring_drops = ds.tx_ring_drops;
        (c.cpu_kernel_ns, c.cpu_user_ns) = dp.cpu_split();
        c.cpu_busy_ns = server.cores[..dp.threads.len()]
            .iter()
            .map(|k| k.borrow().busy_ns)
            .sum();
        c.server_threads = dp.threads.len() as u64;
        let engine = tb.engine.as_ref().expect("launched");
        let t = engine.tcp_stats();
        c.tcp_rx_segments = t.rx_segments;
        c.tcp_tx_segments = t.tx_segments;
        c.tcp_payload_writes = t.tx_payload_writes + t.rx_payload_copies + t.rx_ooo_copies;
        c.tcp_retransmits = t.retransmits;
        c.tcp_rto_fires = t.rto_fires;
        c.tcp_rst_tx = t.rst_tx;
        c.tcp_synrcvd_overflow_drops = t.synrcvd_overflow_drops;
        c.tcp_parse_drops = t.parse_drops;
        c.tcp_checksum_drops = t.checksum_drops;
        let fm = engine.flow_mem();
        c.tcb_bytes = fm.bytes as u64;
        c.tcb_live = fm.live as u64;
        let p = dp.mbuf_stats();
        c.pool_allocs = p.allocs;
        c.pool_peak_outstanding = p.peak_outstanding;
        c.pool_exhausted = p.exhausted;
        c.cap_rejections = (self.server_cap_rejections)(&dp.threads);
        c.store_lock_wait_ns = self.store.as_ref().map_or(0, |s| s.borrow().lock_wait_ns);
        for lh in &self.linux_clients {
            let s = lh.stats();
            c.client_irqs += s.interrupts;
            c.client_softirqs += s.softirqs;
            c.client_wakeups += s.wakeups;
            for core in &lh.cores {
                let st = &core.borrow().shard.stats;
                c.client_parse_drops += st.parse_drops;
                c.client_checksum_drops += st.checksum_drops;
            }
        }
        if let Some(d) = &self.ix_client {
            for th in &d.threads {
                let st = &th.borrow().shard.stats;
                c.client_parse_drops += st.parse_drops;
                c.client_checksum_drops += st.checksum_drops;
            }
        }
        for id in &tb.clients {
            let h = tb.fabric.host(*id);
            c.client_busy_ns += h.cores[..self.client_threads]
                .iter()
                .map(|k| k.borrow().busy_ns)
                .sum::<u64>();
            c.client_cores += self.client_threads as u64;
        }
        let a = self.acct.borrow();
        c.done_total = a.done_total;
        c.dials = a.dials;
        c.established = a.established;
        c
    }
}

/// Raw counters of every layer at one instant. All of them are virtual
/// (functions of the seed alone), so traced and untraced runs must
/// produce identical snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Counters {
    pub sim_executed: u64,
    pub sim_near_inserts: u64,
    pub sim_far_inserts: u64,
    pub sim_pending_hwm: u64,
    pub nic_rx_frames: u64,
    pub nic_tx_frames: u64,
    pub nic_rx_ring_drops: u64,
    pub nic_rx_depth_hwm: u64,
    pub switch_forwarded: u64,
    pub dp_iterations: u64,
    pub dp_events: u64,
    pub dp_syscalls: u64,
    pub dp_full_batches: u64,
    pub dp_batch_sum: u64,
    pub dp_tx_ring_drops: u64,
    pub cpu_kernel_ns: u64,
    pub cpu_user_ns: u64,
    pub cpu_busy_ns: u64,
    pub server_threads: u64,
    pub tcp_rx_segments: u64,
    pub tcp_tx_segments: u64,
    pub tcp_payload_writes: u64,
    pub tcp_retransmits: u64,
    pub tcp_rto_fires: u64,
    pub tcp_rst_tx: u64,
    pub tcp_synrcvd_overflow_drops: u64,
    pub tcp_parse_drops: u64,
    pub tcp_checksum_drops: u64,
    pub tcb_bytes: u64,
    pub tcb_live: u64,
    pub pool_allocs: u64,
    pub pool_peak_outstanding: u64,
    pub pool_exhausted: u64,
    pub cap_rejections: u64,
    pub store_lock_wait_ns: u64,
    pub client_irqs: u64,
    pub client_softirqs: u64,
    pub client_wakeups: u64,
    pub client_busy_ns: u64,
    pub client_cores: u64,
    pub client_parse_drops: u64,
    pub client_checksum_drops: u64,
    pub done_total: u64,
    pub dials: u64,
    pub established: u64,
}

/// Virtual lengths of a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Window length, ns (a multiple of `chunk_ns`).
    pub win_ns: u64,
    /// Drain after the window before unfinished requests fail, ns (a
    /// multiple of `chunk_ns`).
    pub drain_ns: u64,
    /// Host-timing slice, ns of virtual time.
    pub chunk_ns: u64,
}

/// One virtual-time slice of a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Host CPU time of the step loop over the slice, and of the
    /// reference run after it.
    pub time: Timed,
    /// Ops completed in the slice.
    pub ops: u64,
}

/// Everything one measured window produced.
#[derive(Debug)]
pub struct Measured {
    /// The window and its drain, in `plan.chunk_ns` slices.
    pub slices: Vec<Slice>,
    /// Wall-clock ns inside the step loop (the clock the shims use, so
    /// shares of it add up).
    pub loop_ns: u64,
    /// Wall-clock ns of the window's host work: the step loop plus the
    /// counter snapshots between slices (the reference runs excluded).
    pub wall_ns: u64,
    /// Events run.
    pub events: u64,
    /// Shim time (zeros untraced).
    pub shim: ClockSnap,
    /// Counters at the window's start and end.
    pub c0: Counters,
    /// See `c0`.
    pub c1: Counters,
    /// The virtual window.
    pub window: Window,
}

/// Runs `bed`'s window and drain, from its opening, in `plan.chunk_ns`
/// slices of virtual time, each timed on its own (see [`timed`]).
pub fn measure(bed: &mut Bed, plan: Plan, spans: &mut Spans) -> Measured {
    let (t0, t1, td) = {
        let a = bed.acct.borrow();
        (a.win_start, a.win_end, a.deadline)
    };
    assert_eq!(
        bed.tb.sim.now().as_nanos(),
        t0,
        "bed parked at the window opening"
    );
    assert_eq!(plan.win_ns % plan.chunk_ns, 0);
    assert_eq!(plan.drain_ns % plan.chunk_ns, 0);
    let span = spans.open("window", None);
    let c0 = bed.counters(true);
    let mut c1 = c0;
    let mut slices = Vec::new();
    let (mut loop_ns, mut wall_ns, mut events) = (0u64, 0u64, 0u64);
    let shim0 = bed.clocks.as_ref().map_or([0; 4], |c| c.snap());
    let mut t = t0;
    while t < td {
        t += plan.chunk_ns;
        let done0 = bed.acct.borrow().done_total;
        let ((n, ns), time) = timed(|| {
            let h = Instant::now();
            (drive_to(&mut bed.tb.sim, t), h.elapsed().as_nanos() as u64)
        });
        events += n;
        loop_ns += ns;
        wall_ns += ns;
        slices.push(Slice {
            time,
            ops: bed.acct.borrow().done_total - done0,
        });
        if t == t1 {
            let h = Instant::now();
            c1 = bed.counters(true);
            wall_ns += h.elapsed().as_nanos() as u64;
        }
    }
    let shim1 = bed.clocks.as_ref().map_or([0; 4], |c| c.snap());
    spans.close(span);
    Measured {
        slices,
        loop_ns,
        wall_ns,
        events,
        shim: std::array::from_fn(|i| shim1[i] - shim0[i]),
        c0,
        c1,
        window: bed.acct.borrow().evaluate(),
    }
}

/// Repetitions of one workload's set-up and window, all from the same
/// seed, so each repeats the identical virtual work.
#[derive(Debug)]
pub struct Reps {
    /// Every repetition's set-up.
    pub setups: Vec<Setup>,
    /// The first repetition (every later one must match it virtually).
    pub first: Measured,
    /// Every repetition's slices, in order.
    pub slices: Vec<Slice>,
    /// Sums over all repetitions: step-loop wall ns, window wall ns,
    /// events, ops and shim time.
    pub loop_ns: u64,
    /// See `loop_ns`.
    pub wall_ns: u64,
    /// See `loop_ns`.
    pub events: u64,
    /// See `loop_ns`.
    pub ops: u64,
    /// See `loop_ns`.
    pub shim: ClockSnap,
}

impl Reps {
    /// Host CPU ns per completed op at the reference speed: every
    /// slice's normalized time, summed over all repetitions, over their
    /// ops.
    pub fn host_ns_per_op(&self) -> f64 {
        self.loop_normalized_ns() / self.ops as f64
    }

    /// Host CPU ns per completed op as measured.
    pub fn raw_ns_per_op(&self) -> f64 {
        self.slices.iter().map(|s| s.time.cpu_ns).sum::<u64>() as f64 / self.ops as f64
    }

    /// Host CPU ns of one reference run, median over every run.
    pub fn ref_ns(&self) -> f64 {
        median(
            &self
                .slices
                .iter()
                .map(|s| s.time.ref_ns as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Step-loop CPU ns at the reference speed, all repetitions.
    pub fn loop_normalized_ns(&self) -> f64 {
        self.slices.iter().map(|s| s.time.normalized_ns()).sum()
    }

    /// The set-up whose total is the median one (the lower median for an
    /// even count).
    pub fn median_setup(&self) -> Setup {
        let mut v = self.setups.clone();
        v.sort_by(|a, b| a.total().total_cmp(&b.total()));
        v[(v.len() - 1) / 2]
    }
}

/// Sets up and measures the workload `build` builds, again and again,
/// until `budget_s` of wall-clock time has passed and at least
/// `min_reps` repetitions ran. `finish` runs the end-of-run output checks
/// on each measured testbed; every repetition must reproduce the first
/// one's virtual results exactly.
pub fn repeat(
    build: &dyn Fn(&mut Spans) -> Bed,
    finish: &dyn Fn(&Bed),
    plan: Plan,
    budget_s: f64,
    min_reps: usize,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Reps {
    let start = Instant::now();
    let mut reps: Option<Reps> = None;
    loop {
        let mut bed = build(spans);
        let m = measure(&mut bed, plan, spans);
        finish(&bed);
        for e in bed.checks.borrow().first.iter() {
            checks.fail(e.clone());
        }
        let setup = bed.setup;
        drop(bed); // One testbed resident at a time.
        let slices = m.slices.clone();
        let (loop_ns, wall_ns, events, shim) = (m.loop_ns, m.wall_ns, m.events, m.shim);
        let r = match reps.as_mut() {
            None => reps.insert(Reps {
                setups: Vec::new(),
                slices: Vec::new(),
                loop_ns: 0,
                wall_ns: 0,
                events: 0,
                ops: 0,
                shim: [0; 4],
                first: m,
            }),
            Some(r) => {
                if r.first.window != m.window || r.first.c0 != m.c0 || r.first.c1 != m.c1 {
                    checks.fail(format!(
                        "repetition {} of the same seed diverged",
                        r.setups.len() + 1
                    ));
                }
                r
            }
        };
        r.setups.push(setup);
        r.ops += slices.iter().map(|s| s.ops).sum::<u64>();
        r.slices.extend(slices);
        r.loop_ns += loop_ns;
        r.wall_ns += wall_ns;
        r.events += events;
        for (a, b) in r.shim.iter_mut().zip(shim) {
            *a += b;
        }
        if r.setups.len() >= min_reps && start.elapsed().as_secs_f64() >= budget_s {
            return reps.expect("at least one repetition");
        }
    }
}

/// Runs the setup phases common to every workload: `launch` builds the
/// engines on the fresh testbed (and takes ownership of it), then the
/// clock runs to `ramp_end` and on to `t0` in `chunk_ns` slices. Each
/// phase is a span; its host time is normalized like a window's slices
/// (see [`timed`]), and the phases sum to the set-up time.
pub fn timed_setup(
    spans: &mut Spans,
    make_testbed: impl FnOnce() -> Testbed,
    launch: impl FnOnce(Testbed) -> Bed,
    ramp_end: u64,
    t0: u64,
    chunk_ns: u64,
) -> Bed {
    let root = spans.open("setup", None);
    let s = spans.open("setup.testbed", Some(root));
    let (tb, time) = timed(make_testbed);
    spans.close(s);
    let testbed_s = time.normalized_ns() / 1e9;
    let s = spans.open("setup.launch", Some(root));
    let (mut bed, time) = timed(|| launch(tb));
    spans.close(s);
    let launch_s = time.normalized_ns() / 1e9;
    let mut run_to = |name: &str, end: u64, sim: &mut Simulator| {
        let s = spans.open(name, Some(root));
        let mut ns = 0.0;
        while sim.now().as_nanos() < end {
            let next = (sim.now().as_nanos() + chunk_ns).min(end);
            ns += timed(|| drive_to(sim, next)).1.normalized_ns();
        }
        spans.close(s);
        ns / 1e9
    };
    let ramp_s = run_to("setup.ramp", ramp_end, &mut bed.tb.sim);
    let warmup_s = run_to("setup.warmup", t0, &mut bed.tb.sim);
    spans.close(root);
    bed.setup = Setup {
        testbed_s,
        launch_s,
        ramp_s,
        warmup_s,
    };
    bed
}

/// Echo byte accounting at the end of a run, for workloads whose
/// requests are `msg`-byte echoes: the server received every byte of
/// each completed request and none beyond the requests sent, and echoed
/// at least the completed ones.
pub fn check_echo_bytes(bed: &Bed, msg: usize) {
    let t = bed.tb.engine.as_ref().expect("launched").tcp_stats();
    let a = bed.acct.borrow();
    let (lo, hi) = (a.done_total * msg as u64, a.due_total * msg as u64);
    let mut checks = bed.checks.borrow_mut();
    if t.bytes_rx < lo || t.bytes_rx > hi {
        checks.fail(format!(
            "server received {} bytes; requests bound it to [{lo}, {hi}]",
            t.bytes_rx
        ));
    }
    if t.bytes_tx < lo {
        checks.fail(format!(
            "server echoed {} bytes for {lo} bytes of completed requests",
            t.bytes_tx
        ));
    }
}
