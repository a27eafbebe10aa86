//! The repository benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! ixperf --workload <kv_etc|conn_scale|bulk_ix|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero
//! when an output check fails. `all` runs the three workloads one after
//! another, each in its own process. See `perfbench/README.md` for why each
//! workload exists and what every metric means.

mod acct;
mod agent;
mod bed;
mod bulk;
mod calib;
mod conn;
mod kv;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::rc::Rc;

use acct::{median, quantile};
use bed::{check_echo_bytes, repeat, Bed, Checks, Measured, Plan};
use trace::{Clocks, Spans};

/// The latency limit every SLA metric uses (paper §5.5: p99 ≤ 500 µs).
const SLA_NS: u64 = 500_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Kv,
    Conn,
    Bulk,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "kv_etc" => Some(Workload::Kv),
            "conn_scale" => Some(Workload::Conn),
            "bulk_ix" => Some(Workload::Bulk),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Kv => "kv_etc",
            Workload::Conn => "conn_scale",
            Workload::Bulk => "bulk_ix",
        }
    }

    fn plan(self) -> Plan {
        match self {
            Workload::Kv => kv::PLAN,
            Workload::Conn => conn::PLAN,
            Workload::Bulk => bulk::PLAN,
        }
    }

    /// Set-ups `setup_s` takes the median of, at least: each measured
    /// repetition sets up once, and workloads whose set-up is too short
    /// to time steadily add set-ups that measure nothing.
    fn min_setups(self) -> usize {
        match self {
            Workload::Bulk => 15,
            _ => MIN_REPS,
        }
    }

    fn build(self, seed: u64, clocks: Option<&Rc<Clocks>>, spans: &mut Spans) -> Bed {
        match self {
            Workload::Kv => kv::build(seed, clocks, spans),
            Workload::Conn => conn::build(seed, clocks, spans),
            Workload::Bulk => bulk::build(seed, clocks, spans),
        }
    }

    /// End-of-run output checks on a measured testbed.
    fn final_checks(self, bed: &Bed) {
        let c = bed.counters(false);
        let drops = c.tcp_parse_drops
            + c.tcp_checksum_drops
            + c.client_parse_drops
            + c.client_checksum_drops;
        if drops > 0 {
            bed.checks.borrow_mut().fail(format!(
                "fault-free run dropped frames: server parse/checksum {}/{}, clients {}/{}",
                c.tcp_parse_drops,
                c.tcp_checksum_drops,
                c.client_parse_drops,
                c.client_checksum_drops
            ));
        }
        match self {
            Workload::Kv => {}
            Workload::Conn => check_echo_bytes(bed, conn::MSG),
            Workload::Bulk => check_echo_bytes(bed, bulk::MSG),
        }
    }
}

struct Args {
    /// `None`: all three, one process each.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match v.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?),
                })
            }
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?),
            "--seconds" => {
                let s = v
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one invocation.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    checks: Checks,
    notes: Vec<String>,
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Window ops: requests due in the window plus the workload's dials.
fn window_ops(ms: &Measured) -> (u64, u64) {
    let w = &ms.window;
    let attempted = w.attempted + ms.c1.dials;
    let ok = w.completed + ms.c1.established;
    (attempted, attempted - ok)
}

/// The virtual end-to-end metrics of a measured window (everything but
/// the SLA search and the unloaded agent, which need their own runs).
fn virtual_metrics(wl: Workload, ms: &Measured) -> Vec<Metric> {
    let w = &ms.window;
    let (attempted, failed) = window_ops(ms);
    // NetPIPE keeps one message in flight: its rate is per message
    // latency, as the paper's Fig 2 reports it.
    let (krps, gbps) = match wl {
        Workload::Bulk => (w.serial_krps(), w.serial_goodput_gbps()),
        _ => (w.krps(), w.goodput_gbps()),
    };
    vec![
        m("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio"),
        m("virt_krps", krps, "krps"),
        m("virt_p50_us", w.latency_us(0.5), "us"),
        m("virt_p99_us", w.latency_us(0.99), "us"),
        m("virt_p999_us", w.latency_us(0.999), "us"),
        m("virt_goodput_gbps", gbps, "Gbps"),
    ]
}

/// Repetitions a measured phase runs at least, whatever its budget: a
/// per-slice median over fewer is not robust to interference.
const MIN_REPS: usize = 3;

fn untraced(wl: Workload, a: &Args) -> Report {
    let mut spans = Spans::new();
    let mut checks = Checks::default();
    let reps = repeat(
        &|sp| wl.build(a.seed, None, sp),
        &|b| wl.final_checks(b),
        wl.plan(),
        a.seconds,
        MIN_REPS,
        &mut spans,
        &mut checks,
    );
    let mut setups: Vec<f64> = reps.setups.iter().map(|s| s.total()).collect();
    while setups.len() < wl.min_setups() {
        setups.push(wl.build(a.seed, None, &mut spans).setup.total());
    }
    let ms = &reps.first;
    let w = &ms.window;
    let mut notes = vec![format!(
        "window: {} requests due in {:.0} ms virtual, {} failed; {} dials, {} established; {} samples in p99.9",
        w.attempted,
        w.len_ns as f64 / 1e6,
        w.failed(),
        ms.c1.dials,
        ms.c1.established,
        w.latencies.len()
    )];
    notes.push(format!(
        "host: {} repetitions of {} slices, {:.2} s in the windows; CPU ns/op as measured {:.0}; reference run {:.0} ns (nominal {:.0})",
        reps.setups.len(),
        ms.slices.len(),
        reps.wall_ns as f64 / 1e9,
        reps.raw_ns_per_op(),
        reps.ref_ns(),
        calib::REF_NS
    ));
    let virt = virtual_metrics(wl, ms);
    let krps = virt
        .iter()
        .find(|x| x.name == "virt_krps")
        .expect("reported")
        .value;
    let (at_sla, unloaded) = match wl {
        Workload::Kv => {
            let (probes, best) = kv::sla_search(a.seed, &mut spans, &mut checks);
            for p in &probes {
                notes.push(format!(
                    "SLA probe {:>5} krps offered: {:>8.1} achieved, p99 {:>8.1} us, backlog {} -> {}: {}",
                    p.offered_krps,
                    p.achieved_krps,
                    p.p99_us,
                    p.backlog.0,
                    p.backlog.1,
                    if p.pass { "pass" } else { "fail" }
                ));
            }
            let at = best.map_or(0.0, |i| probes[i].achieved_krps);
            if best.is_none() {
                checks.fail(format!(
                    "no SLA probe passed from {} krps up",
                    kv::SLA_LO_KRPS
                ));
            }
            (at, kv::unloaded_p99_us_kv(a.seed, &mut checks))
        }
        // Closed loop: the rate is not a knob, so the SLA metric is the
        // operating point's rate of requests that met the limit.
        Workload::Conn => (
            krps * w.frac_within(SLA_NS),
            conn::unloaded_p99_us_echo(a.seed, &mut checks),
        ),
        // NetPIPE is itself one request at a time on an idle server.
        Workload::Bulk => (krps * w.frac_within(SLA_NS), w.latency_us(0.99)),
    };
    let (attempted, failed) = window_ops(ms);
    let mut metrics = vec![
        m("setup_s", median(&setups), "s"),
        m("host_ns_per_op", reps.host_ns_per_op(), "ns"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    metrics.extend(virt);
    metrics.push(m("virt_unloaded_p99_us", unloaded, "us"));
    metrics.push(m("virt_krps_at_sla", at_sla, "krps"));
    Report {
        metrics,
        attempted,
        failed,
        checks,
        notes,
    }
}

fn traced(wl: Workload, a: &Args) -> Report {
    let plan = wl.plan();
    let mut spans = Spans::new();
    let mut checks = Checks::default();
    let finish = |b: &Bed| wl.final_checks(b);
    let half = a.seconds / 2.0;
    let ru = repeat(
        &|sp| wl.build(a.seed, None, sp),
        &finish,
        plan,
        half,
        MIN_REPS,
        &mut spans,
        &mut checks,
    );
    let clocks = Rc::new(Clocks::default());
    let rt = repeat(
        &|sp| wl.build(a.seed, Some(&clocks), sp),
        &finish,
        plan,
        half,
        MIN_REPS,
        &mut spans,
        &mut checks,
    );
    let (mu, mt) = (&ru.first, &rt.first);

    // Tracing must not move a single virtual number.
    let vu: Vec<u64> = virtual_metrics(wl, mu)
        .iter()
        .map(|x| x.value.to_bits())
        .collect();
    let vt: Vec<u64> = virtual_metrics(wl, mt)
        .iter()
        .map(|x| x.value.to_bits())
        .collect();
    if vu != vt || mu.window != mt.window || mu.c0 != mt.c0 || mu.c1 != mt.c1 {
        checks.fail("the traced run's virtual results differ from the untraced run's".into());
    }

    let (c0, c1) = (&mt.c0, &mt.c1);
    let ops = (c1.done_total - c0.done_total).max(1) as f64;
    let per = |d: u64| d as f64 / ops;
    let win = plan.win_ns as f64;
    let s = rt.shim;
    let (srv_libix, srv_app, cli_libix, cli_app) = (s[0] - s[1], s[1], s[2] - s[3], s[3]);
    // A span's host ns per op: its share of the step loop's wall time
    // times the traced host_ns_per_op, so the layers add up to it.
    let host_per = |ns: u64| ns as f64 / rt.loop_ns.max(1) as f64 * rt.host_ns_per_op();
    let wall = rt.wall_ns as f64;
    // The shims run inside the step loop, so this cannot underflow.
    let unattributed = rt.loop_ns - s[0] - s[2];
    let setup = rt.median_setup();
    let metrics = vec![
        m(
            "sim.host_ns_per_event",
            rt.loop_normalized_ns() / rt.events.max(1) as f64,
            "ns",
        ),
        m(
            "sim.events_per_op",
            per(c1.sim_executed - c0.sim_executed),
            "1/op",
        ),
        m(
            "sim.far_insert_frac",
            (c1.sim_far_inserts - c0.sim_far_inserts) as f64
                / (c1.sim_far_inserts + c1.sim_near_inserts
                    - c0.sim_far_inserts
                    - c0.sim_near_inserts)
                    .max(1) as f64,
            "ratio",
        ),
        m("sim.pending_hwm", c1.sim_pending_hwm as f64, "count"),
        m(
            "nic.rx_frames_per_op",
            per(c1.nic_rx_frames - c0.nic_rx_frames),
            "1/op",
        ),
        m(
            "nic.tx_frames_per_op",
            per(c1.nic_tx_frames - c0.nic_tx_frames),
            "1/op",
        ),
        m(
            "switch.forwarded_per_op",
            per(c1.switch_forwarded - c0.switch_forwarded),
            "1/op",
        ),
        m("nic.rx_ring_drops", c1.nic_rx_ring_drops as f64, "count"),
        m("nic.rx_ring_depth_hwm", c1.nic_rx_depth_hwm as f64, "count"),
        m(
            "core.avg_batch",
            (c1.dp_batch_sum - c0.dp_batch_sum) as f64
                / (c1.dp_iterations - c0.dp_iterations).max(1) as f64,
            "count",
        ),
        m(
            "core.full_batch_frac",
            (c1.dp_full_batches - c0.dp_full_batches) as f64
                / (c1.dp_iterations - c0.dp_iterations).max(1) as f64,
            "ratio",
        ),
        m(
            "core.iterations_per_op",
            per(c1.dp_iterations - c0.dp_iterations),
            "1/op",
        ),
        m(
            "core.events_per_op",
            per(c1.dp_events - c0.dp_events),
            "1/op",
        ),
        m(
            "core.syscalls_per_op",
            per(c1.dp_syscalls - c0.dp_syscalls),
            "1/op",
        ),
        m(
            "core.kernel_ns_per_op",
            per(c1.cpu_kernel_ns - c0.cpu_kernel_ns),
            "ns",
        ),
        m(
            "core.user_ns_per_op",
            per(c1.cpu_user_ns - c0.cpu_user_ns),
            "ns",
        ),
        m(
            "core.busy_frac",
            (c1.cpu_busy_ns - c0.cpu_busy_ns) as f64 / (c1.server_threads as f64 * win),
            "ratio",
        ),
        m("core.tx_ring_drops", c1.dp_tx_ring_drops as f64, "count"),
        m(
            "core.libix_cap_rejections",
            c1.cap_rejections as f64,
            "count",
        ),
        m("core.libix_host_ns_per_op", host_per(srv_libix), "ns"),
        m(
            "core.libix_client_host_ns_per_op",
            host_per(cli_libix),
            "ns",
        ),
        m(
            "tcp.rx_segments_per_op",
            per(c1.tcp_rx_segments - c0.tcp_rx_segments),
            "1/op",
        ),
        m(
            "tcp.tx_segments_per_op",
            per(c1.tcp_tx_segments - c0.tcp_tx_segments),
            "1/op",
        ),
        m(
            "tcp.payload_writes_per_op",
            per(c1.tcp_payload_writes - c0.tcp_payload_writes),
            "1/op",
        ),
        m("tcp.retransmits", c1.tcp_retransmits as f64, "count"),
        m("tcp.rto_fires", c1.tcp_rto_fires as f64, "count"),
        m("tcp.rst_tx", c1.tcp_rst_tx as f64, "count"),
        m(
            "tcp.synrcvd_overflow_drops",
            c1.tcp_synrcvd_overflow_drops as f64,
            "count",
        ),
        m(
            "tcp.tcb_bytes_per_conn",
            c1.tcb_bytes as f64 / c1.tcb_live.max(1) as f64,
            "B",
        ),
        m(
            "mempool.allocs_per_op",
            per(c1.pool_allocs - c0.pool_allocs),
            "1/op",
        ),
        m(
            "mempool.peak_outstanding",
            c1.pool_peak_outstanding as f64,
            "count",
        ),
        m("mempool.exhausted", c1.pool_exhausted as f64, "count"),
        m("apps.server_host_ns_per_op", host_per(srv_app), "ns"),
        m("apps.client_host_ns_per_op", host_per(cli_app), "ns"),
        m(
            "apps.store_lock_wait_ns_per_op",
            per(c1.store_lock_wait_ns - c0.store_lock_wait_ns),
            "ns",
        ),
        m(
            "apps.gen_lag_p99_us",
            quantile(&mt.window.lags, 0.99) as f64 / 1e3,
            "us",
        ),
        m(
            "apps.conn_established_frac",
            c1.established as f64 / c1.dials.max(1) as f64,
            "ratio",
        ),
        m(
            "baselines.client_irqs_per_op",
            per(c1.client_irqs - c0.client_irqs),
            "1/op",
        ),
        m(
            "baselines.client_softirqs_per_op",
            per(c1.client_softirqs - c0.client_softirqs),
            "1/op",
        ),
        m(
            "baselines.client_wakeups_per_op",
            per(c1.client_wakeups - c0.client_wakeups),
            "1/op",
        ),
        m(
            "baselines.client_busy_frac",
            (c1.client_busy_ns - c0.client_busy_ns) as f64 / (c1.client_cores.max(1) as f64 * win),
            "ratio",
        ),
        m("setup.testbed_s", setup.testbed_s, "s"),
        m("setup.launch_s", setup.launch_s, "s"),
        m("setup.ramp_s", setup.ramp_s, "s"),
        m("setup.warmup_s", setup.warmup_s, "s"),
        m("share.core.libix", srv_libix as f64 / wall, "ratio"),
        m("share.apps.server", srv_app as f64 / wall, "ratio"),
        m("share.core.libix_client", cli_libix as f64 / wall, "ratio"),
        m("share.apps.client", cli_app as f64 / wall, "ratio"),
        m(
            "share.bench.loop",
            (rt.wall_ns - rt.loop_ns) as f64 / wall,
            "ratio",
        ),
        m(
            "unattributed.host_share",
            unattributed as f64 / wall,
            "ratio",
        ),
        m(
            "trace.overhead_frac",
            rt.host_ns_per_op() / ru.host_ns_per_op() - 1.0,
            "ratio",
        ),
    ];

    let aggregates = [
        ("core.libix", srv_libix),
        ("apps.server", srv_app),
        ("core.libix_client", cli_libix),
        ("apps.client", cli_app),
        ("unattributed", unattributed),
    ];
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}-seed{}.trace.jsonl", wl.name(), a.seed));
    let mut notes = vec![format!(
        "untraced host_ns_per_op {:.1}, traced {:.1}; spans in {}",
        ru.host_ns_per_op(),
        rt.host_ns_per_op(),
        path.display()
    )];
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans.to_json_lines(&aggregates)))
    {
        notes.push(format!("could not write the span log: {e}"));
    }
    let (attempted, failed) = window_ops(mt);
    Report {
        metrics,
        attempted,
        failed,
        checks,
        notes,
    }
}

/// Paper counterparts of the virtual metrics: `(workload, metric,
/// paper value, what it is)`. A `None` value marks a bound or a shape
/// the paper gives without a point value.
const PAPER: &[(&str, &str, Option<f64>, &str)] = &[
    (
        "kv_etc",
        "virt_unloaded_p99_us",
        Some(45.0),
        "Table 2, ETC-IX unloaded p99",
    ),
    (
        "kv_etc",
        "virt_krps_at_sla",
        Some(1550.0),
        "Table 2, ETC-IX krps at p99 <= 500 us",
    ),
    (
        "bulk_ix",
        "virt_goodput_gbps",
        None,
        "Fig 2: IX reaches 5 Gbps (half of 10GbE) by ~20 KB, so >= 5 at 64 KiB",
    ),
    (
        "conn_scale",
        "virt_krps",
        None,
        "Fig 4, IX-40G: plotted only; the text gives 47% of peak at 250k",
    ),
];

fn render(wl: Workload, a: &Args, r: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} seed {} ({}): {} attempted, {} failed",
        wl.name(),
        a.seed,
        if a.trace { "traced" } else { "untraced" },
        r.attempted,
        r.failed
    );
    for n in &r.notes {
        let _ = writeln!(out, "#   {n}");
    }
    for x in &r.metrics {
        let mut line = format!("{:<36} {:>14.4} {}", x.name, x.value, x.unit);
        for (paper_wl, name, paper, what) in PAPER {
            if *paper_wl == wl.name() && *name == x.name {
                match paper {
                    Some(p) => {
                        let _ = write!(
                            line,
                            "   paper {p} ({what}), rel err {:+.1}%",
                            (x.value / p - 1.0) * 100.0
                        );
                    }
                    None => {
                        let _ = write!(line, "   paper: {what}");
                    }
                }
            }
        }
        let _ = writeln!(out, "{line}");
    }
    if !a.trace {
        let _ = writeln!(
            out,
            "# The cost model was calibrated to reproduce the paper's shapes; it has not been validated on held-out data."
        );
    }
    for e in &r.checks.first {
        let _ = writeln!(out, "# CHECK FAILED: {e}");
    }
    out
}

fn json(r: &Report, correct: bool) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// `--workload all`: every workload in its own process, one after
/// another; fails if any of them does.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for wl in [Workload::Kv, Workload::Conn, Workload::Bulk] {
        let status = std::process::Command::new(&exe)
            .args(["--workload", wl.name(), "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ixperf: {e}");
            eprintln!("usage: ixperf --workload <kv_etc|conn_scale|bulk_ix|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = args.workload else {
        return run_all(&args);
    };
    let mut report = if args.trace {
        traced(wl, &args)
    } else {
        untraced(wl, &args)
    };
    for x in &report.metrics {
        if !x.value.is_finite() {
            report
                .checks
                .fail(format!("{} is not a finite number", x.name));
        }
    }
    for x in report.metrics.iter_mut().filter(|x| !x.value.is_finite()) {
        x.value = 0.0;
    }
    if report.attempted == 0 {
        report.checks.fail("nothing was attempted".into());
    }
    let correct = report.checks.failures == 0;
    print!("{}", render(wl, &args, &report));
    println!("{}", json(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
