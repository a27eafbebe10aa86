//! `kv_etc`: memcached ETC on a 6-core IX server (paper §5.5, Fig 5,
//! Table 2).
//!
//! The load comes from a benchmark-owned open-loop generator built on
//! the public workload and wire-protocol definitions, so every request
//! is accounted for (the library's generator drops unfinished requests
//! silently) and every response is checked: in sequence per connection,
//! status OK, and a value length consistent with a shadow of the SETs.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use ix_apps::harness::{ServerEngine, Testbed};
use ix_apps::kvstore::{KvServer, SharedStore};
use ix_apps::workload::{proto, Workload, WorkloadKind};
use ix_baselines::linux::{LinuxHost, LinuxParams};
use ix_core::dataplane::Dataplane;
use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_core::params::CostParams;
use ix_net::Ipv4Addr;
use ix_sim::SimRng;
use ix_tcp::{DeadReason, StackConfig};
use ix_testkit::Bytes;

use crate::acct::{meets_sla, Acct, Tok};
use crate::agent::{unloaded_p99_us, AgentReq, AgentServer};
use crate::bed::{drive_to, timed_setup, Bed, Checks, ChecksRef, Plan};
use crate::trace::{cap_rejections, wrap, Clocks, Side, Spans};

/// Client machines (paper: 23 load clients).
pub const N_CLIENTS: usize = 23;
/// Load threads per client machine.
pub const THREADS: usize = 4;
/// Connections per load thread: 23 × 4 × 16 = 1,472 (paper: 1,476).
pub const CONNS: usize = 16;
/// Elastic threads on the server (the paper's IX memcached width).
pub const SERVER_CORES: usize = 6;
/// Service port.
pub const PORT: u16 = 11211;
/// Requests a connection may have outstanding (mutilate's depth).
pub const PIPELINE: usize = 4;
/// Arrivals a load thread may queue before it sheds.
pub const BACKLOG_CAP: usize = 4096;
/// The fixed operating point, requests/s offered (~90% of the knee).
pub const RATE_RPS: f64 = 1_200_000.0;
/// Arrivals start here, once the 1,472 handshakes are done.
pub const RAMP_END_NS: u64 = 2_000_000;
/// The measured window opens here.
pub const T0_NS: u64 = 8_000_000;
/// Window, drain and host slice at the operating point.
pub const PLAN: Plan = Plan {
    win_ns: 50_000_000,
    drain_ns: 5_000_000,
    chunk_ns: 1_000_000,
};
/// The latency limit of the SLA search (paper: 500 µs at p99).
pub const SLA_NS: u64 = 500_000;
/// SLA probe window; each probe is a fresh testbed at one offered rate.
pub const PROBE_PLAN: Plan = Plan {
    win_ns: 10_000_000,
    drain_ns: 3_000_000,
    chunk_ns: 1_000_000,
};
/// SLA probe grid: offered rates `LO + i × STEP` krps, `i < STEPS`.
pub const SLA_LO_KRPS: u64 = 800;
/// Resolution of the SLA search, krps.
pub const SLA_STEP_KRPS: u64 = 20;
/// Grid points (800..=1780 krps).
pub const SLA_STEPS: u64 = 50;
/// Unloaded-agent samples and mean gap between them.
pub const AGENT_SAMPLES: usize = 2_000;
/// See [`AGENT_SAMPLES`].
pub const AGENT_GAP_NS: u64 = 50_000;

/// What the clients know about the SETs they issued, to check GET
/// responses against. The store synthesizes a `b'v'`-filled value of
/// the requested length for keys never set; SET values are `b'w'`.
#[derive(Debug, Default)]
pub struct Shadow {
    keys: HashMap<(u64, usize), KeyState>,
}

#[derive(Debug, Default)]
struct KeyState {
    /// Value lengths of every SET issued for the key.
    set_lens: Vec<usize>,
    /// Some SET for the key has completed.
    set_done: bool,
}

impl Shadow {
    /// A SET of `vlen` bytes for the key was issued.
    pub fn set_issued(&mut self, key: (u64, usize), vlen: usize) {
        let k = self.keys.entry(key).or_default();
        if !k.set_lens.contains(&vlen) {
            k.set_lens.push(vlen);
        }
    }

    /// A SET for the key completed.
    pub fn set_done(&mut self, key: (u64, usize)) {
        self.keys.entry(key).or_default().set_done = true;
    }

    /// Whether any SET for the key has completed.
    pub fn any_set_done(&self, key: (u64, usize)) -> bool {
        self.keys.get(&key).is_some_and(|k| k.set_done)
    }

    /// Checks a GET response of `vlen` bytes whose value starts with
    /// `first`, for a GET that asked for `requested` bytes and was
    /// issued after a SET of the key completed iff `set_seen`.
    pub fn check_get(
        &self,
        key: (u64, usize),
        requested: usize,
        set_seen: bool,
        vlen: usize,
        first: Option<u8>,
    ) -> Result<(), String> {
        match first {
            // Never stored: only possible if no SET had completed when
            // the GET left, and the value is synthesized at the asked size.
            Some(b'v') if vlen == requested && !set_seen => Ok(()),
            Some(b'w') if self.keys.get(&key).is_some_and(|k| k.set_lens.contains(&vlen)) => Ok(()),
            _ => Err(format!(
                "GET {key:?}: {vlen}-byte value starting {first:?} (asked {requested}, set seen {set_seen})"
            )),
        }
    }
}

/// A request written to a connection, awaiting its response.
#[derive(Debug, Clone, Copy)]
struct Out {
    seq: u64,
    tok: Tok,
    key: (u64, usize),
    is_get: bool,
    val_len: usize,
    set_seen: bool,
    req_len: usize,
}

#[derive(Debug, Default)]
struct ConnIo {
    rx: Vec<u8>,
    fifo: VecDeque<Out>,
}

/// One open-loop load thread: Poisson arrivals at `rate_rps`, spread
/// round-robin over its connections with at most [`PIPELINE`]
/// outstanding per connection.
struct KvGen {
    server: Ipv4Addr,
    conns: usize,
    rate_rps: f64,
    wl: Workload,
    rng: SimRng,
    acct: Rc<RefCell<Acct>>,
    shadow: Rc<RefCell<Shadow>>,
    checks: ChecksRef,
    io: Vec<ConnIo>,
    cookies: Vec<u64>,
    ready: Vec<usize>,
    rr: usize,
    next_seq: u64,
    next_arrival_ns: u64,
    backlog: VecDeque<Tok>,
    started: bool,
    /// SET value bytes, sliced per request.
    wbuf: Vec<u8>,
}

impl KvGen {
    fn build(&mut self, user: usize, tok: Tok, now: u64) -> Bytes {
        let op = self.wl.next_op(&mut self.rng);
        let key = (op.key, op.key_len);
        let kb = Workload::key_bytes(op.key, op.key_len);
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut shadow = self.shadow.borrow_mut();
        let (req, set_seen) = if op.is_get {
            (
                proto::encode_request(proto::OP_GET, seq, &kb, &self.wbuf[..op.val_len]),
                shadow.any_set_done(key),
            )
        } else {
            shadow.set_issued(key, op.val_len);
            (
                proto::encode_request(proto::OP_SET, seq, &kb, &self.wbuf[..op.val_len]),
                false,
            )
        };
        self.acct.borrow_mut().issued(tok, now);
        self.io[user].fifo.push_back(Out {
            seq,
            tok,
            key,
            is_get: op.is_get,
            val_len: op.val_len,
            set_seen,
            req_len: req.len(),
        });
        Bytes::from(req)
    }

    /// Moves queued arrivals onto connections with pipeline room. Every
    /// write is deferred to the end of the libix cycle, even on the
    /// connection being served: mixing a direct write with deferred ones
    /// in one cycle would put requests on the wire out of FIFO order.
    fn drain_backlog(&mut self, now: u64, mut write: impl FnMut(u64, Bytes)) {
        'outer: while !self.backlog.is_empty() {
            for probe in 0..self.ready.len() {
                let idx = (self.rr + probe) % self.ready.len();
                let user = self.ready[idx];
                if self.io[user].fifo.len() < PIPELINE {
                    self.rr = (idx + 1) % self.ready.len();
                    let tok = self.backlog.pop_front().expect("non-empty");
                    let req = self.build(user, tok, now);
                    write(self.cookies[user], req);
                    continue 'outer;
                }
            }
            break;
        }
    }

    /// Checks one complete response against the request it answers.
    fn check(&self, out: &Out, h: &proto::RspHeader, first: Option<u8>) -> Result<(), String> {
        if h.seq != out.seq {
            return Err(format!(
                "response seq {} out of order (expected {})",
                h.seq, out.seq
            ));
        }
        if h.status != proto::ST_OK {
            return Err(format!("seq {}: status {}", h.seq, h.status));
        }
        if out.is_get {
            self.shadow
                .borrow()
                .check_get(out.key, out.val_len, out.set_seen, h.vlen, first)
        } else if h.vlen != 0 {
            Err(format!(
                "SET seq {} answered with a {}-byte value",
                h.seq, h.vlen
            ))
        } else {
            Ok(())
        }
    }
}

impl LibixHandler for KvGen {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started {
            self.started = true;
            self.next_arrival_ns = RAMP_END_NS + self.rng.exponential(1e9 / self.rate_rps) as u64;
            for user in 0..self.conns {
                ctx.connect(self.server, PORT, user as u64);
            }
        }
        while self.next_arrival_ns <= ctx.now_ns {
            let due = self.next_arrival_ns;
            self.next_arrival_ns += (self.rng.exponential(1e9 / self.rate_rps) as u64).max(1);
            let mut acct = self.acct.borrow_mut();
            let tok = acct.due(due);
            if self.backlog.len() >= BACKLOG_CAP {
                acct.shed();
            } else {
                self.backlog.push_back(tok);
            }
        }
        ctx.charge(120);
        let now = ctx.now_ns;
        self.drain_backlog(now, |cookie, req| ctx.write_to(cookie, req));
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        if !ok {
            return; // Its requests stay queued and fail at the deadline.
        }
        let user = ctx.conn.user as usize;
        self.cookies[user] = ctx.conn.cookie;
        self.ready.push(user);
        self.acct.borrow_mut().established += 1;
        let now = ctx.now_ns;
        self.drain_backlog(now, |cookie, req| ctx.write_to(cookie, req));
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let user = ctx.conn.user as usize;
        let now = ctx.now_ns;
        // Responses parse in place unless an earlier delivery left a
        // partial one behind.
        let mut spill = std::mem::take(&mut self.io[user].rx);
        if !spill.is_empty() {
            spill.extend_from_slice(data);
        }
        let buf: &[u8] = if spill.is_empty() { data } else { &spill };
        let mut consumed = 0;
        let mut completed = 0u64;
        while let Some(h) = proto::decode_response_header(&buf[consumed..]) {
            let total = h.total_len();
            if buf.len() - consumed < total {
                break;
            }
            let first = (h.vlen > 0).then(|| buf[consumed + proto::RSP_HDR]);
            consumed += total;
            completed += 1;
            let Some(out) = self.io[user].fifo.pop_front() else {
                self.checks
                    .borrow_mut()
                    .fail(format!("unsolicited response seq {}", h.seq));
                continue;
            };
            if let Err(e) = self.check(&out, &h, first) {
                self.checks.borrow_mut().fail(e);
            }
            if !out.is_get {
                self.shadow.borrow_mut().set_done(out.key);
            }
            self.acct
                .borrow_mut()
                .done(out.tok, now, (out.req_len + total) as u64);
        }
        self.io[user].rx = if consumed < buf.len() {
            buf[consumed..].to_vec()
        } else {
            Vec::new()
        };
        ctx.charge(250 * completed);
        self.drain_backlog(now, |cookie, req| ctx.write_to(cookie, req));
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, reason: DeadReason) {
        self.checks
            .borrow_mut()
            .fail(format!("kv connection {} died: {reason:?}", ctx.conn.user));
    }

    fn wants_tick(&self, now_ns: u64) -> bool {
        !self.started || self.next_arrival_ns <= now_ns
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        self.started.then_some(self.next_arrival_ns)
    }
}

/// Builds the kv testbed offering `rate_rps` and parks it at the
/// opening of a `plan` window.
pub fn build_at(
    seed: u64,
    rate_rps: f64,
    plan: Plan,
    clocks: Option<&Rc<Clocks>>,
    spans: &mut Spans,
) -> Bed {
    let t1 = T0_NS + plan.win_ns;
    let acct = Rc::new(RefCell::new(Acct::new(T0_NS, t1, t1 + plan.drain_ns)));
    let checks: ChecksRef = Rc::new(RefCell::new(Checks::default()));
    timed_setup(
        spans,
        || Testbed::new(seed, 1, N_CLIENTS),
        |mut tb| {
            let store = SharedStore::new();
            let host = tb.fabric.host(tb.server);
            let dp = Dataplane::launch(
                &mut tb.sim,
                host,
                SERVER_CORES,
                CostParams::default(),
                StackConfig::default(),
                Some(PORT),
                |_| wrap(KvServer::new(store.clone()), Side::Server, clocks),
            );
            let (sip, smac) = (host.ip, host.mac);
            let shadow = Rc::new(RefCell::new(Shadow::default()));
            let mut seeder = SimRng::new(seed.wrapping_mul(0x9e37));
            let rate = rate_rps / (N_CLIENTS * THREADS) as f64;
            acct.borrow_mut().dials = (N_CLIENTS * THREADS * CONNS) as u64;
            let mut linux_clients = Vec::new();
            for &id in &tb.clients {
                let h = tb.fabric.host(id);
                let lh = LinuxHost::launch(
                    &mut tb.sim,
                    h,
                    THREADS,
                    LinuxParams::default(),
                    StackConfig::default(),
                    None,
                    |_| {
                        let gen = KvGen {
                            server: sip,
                            conns: CONNS,
                            rate_rps: rate,
                            wl: Workload::new(WorkloadKind::Etc),
                            rng: seeder.fork(),
                            acct: acct.clone(),
                            shadow: shadow.clone(),
                            checks: checks.clone(),
                            io: (0..CONNS).map(|_| ConnIo::default()).collect(),
                            cookies: vec![0; CONNS],
                            ready: Vec::new(),
                            rr: 0,
                            next_seq: 1,
                            next_arrival_ns: 0,
                            backlog: VecDeque::new(),
                            started: false,
                            wbuf: vec![b'w'; 1024],
                        };
                        wrap(gen, Side::Client, clocks)
                    },
                );
                lh.seed_arp(sip, smac);
                dp.seed_arp(h.ip, h.mac);
                linux_clients.push(lh);
            }
            tb.engine = Some(ServerEngine::Ix(dp));
            Bed {
                tb,
                linux_clients,
                client_threads: THREADS,
                ix_client: None,
                acct: acct.clone(),
                store: Some(store),
                checks: checks.clone(),
                clocks: clocks.cloned(),
                server_cap_rejections: cap_rejections::<KvServer>,
                setup: Default::default(),
            }
        },
        RAMP_END_NS,
        T0_NS,
        plan.chunk_ns,
    )
}

/// The operating-point testbed.
pub fn build(seed: u64, clocks: Option<&Rc<Clocks>>, spans: &mut Spans) -> Bed {
    build_at(seed, RATE_RPS, PLAN, clocks, spans)
}

/// One SLA probe's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Offered rate, krps.
    pub offered_krps: u64,
    /// Achieved rate, krps.
    pub achieved_krps: f64,
    /// p99 latency with failures as misses, µs.
    pub p99_us: f64,
    /// Backlog at the window's start and end.
    pub backlog: (u64, u64),
    /// Met the SLA.
    pub pass: bool,
}

/// Runs one SLA probe at `offered_krps`.
pub fn probe(seed: u64, offered_krps: u64, spans: &mut Spans, checks: &mut Checks) -> Probe {
    let mut bed = build_at(seed, offered_krps as f64 * 1e3, PROBE_PLAN, None, spans);
    let (t1, td) = {
        let a = bed.acct.borrow();
        (a.win_end, a.deadline)
    };
    let b0 = bed.acct.borrow().outstanding();
    drive_to(&mut bed.tb.sim, t1);
    let b1 = bed.acct.borrow().outstanding();
    drive_to(&mut bed.tb.sim, td);
    let w = bed.acct.borrow().evaluate();
    for e in bed.checks.borrow().first.iter() {
        checks.fail(format!("probe {offered_krps} krps: {e}"));
    }
    Probe {
        offered_krps,
        achieved_krps: w.krps(),
        p99_us: w.latency_us(0.99),
        backlog: (b0, b1),
        pass: meets_sla(&w, SLA_NS, b0, b1),
    }
}

/// Bisects the offered-rate grid for the highest probe that meets the
/// SLA; returns every probe run, in order, and the index of the highest
/// passing one.
pub fn sla_search(
    seed: u64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> (Vec<Probe>, Option<usize>) {
    let mut probes = Vec::new();
    let mut best = None;
    // Grid indices below `lo` pass (assumed until probed), `hi` and up fail.
    let (mut lo, mut hi) = (0, SLA_STEPS);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let p = probe(seed, SLA_LO_KRPS + mid * SLA_STEP_KRPS, spans, checks);
        probes.push(p);
        if p.pass {
            best = Some(probes.len() - 1);
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (probes, best)
}

/// The unloaded agent's p99 against an idle kv server, µs.
pub fn unloaded_p99_us_kv(seed: u64, checks: &mut Checks) -> f64 {
    let store = SharedStore::new();
    unloaded_p99_us(
        seed,
        &AgentServer {
            ports: 1,
            cores: SERVER_CORES,
            port: PORT,
        },
        || KvServer::new(store.clone()),
        AgentReq::Kv(Workload::new(WorkloadKind::Etc)),
        AGENT_SAMPLES,
        AGENT_GAP_NS,
        checks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_accepts_synthesized_values_only_before_a_set_completes() {
        let mut s = Shadow::default();
        let k = (7, 20);
        assert!(s.check_get(k, 100, false, 100, Some(b'v')).is_ok());
        assert!(s.check_get(k, 100, false, 99, Some(b'v')).is_err());
        s.set_issued(k, 40);
        // The SET is in flight: either the synthesized or stored value.
        assert!(s.check_get(k, 100, false, 100, Some(b'v')).is_ok());
        assert!(s.check_get(k, 100, false, 40, Some(b'w')).is_ok());
        s.set_done(k);
        assert!(s.any_set_done(k));
        // A GET issued after the SET completed must see a stored value.
        assert!(s.check_get(k, 100, true, 100, Some(b'v')).is_err());
        assert!(s.check_get(k, 100, true, 40, Some(b'w')).is_ok());
        assert!(s.check_get(k, 100, true, 41, Some(b'w')).is_err());
        assert!(s.check_get(k, 100, true, 0, None).is_err());
    }

    #[test]
    fn shadow_keys_include_the_key_length() {
        let mut s = Shadow::default();
        s.set_issued((7, 20), 40);
        s.set_done((7, 20));
        assert!(!s.any_set_done((7, 21)));
        assert!(s.check_get((7, 21), 40, false, 40, Some(b'w')).is_err());
    }
}
