//! The unloaded latency agent: one connection, one request at a time,
//! against an otherwise idle server (the paper's separate unloaded
//! mutilate client, §5.5).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ix_apps::harness::{ServerEngine, Testbed};
use ix_apps::workload::{proto, Workload};
use ix_baselines::linux::{LinuxHost, LinuxParams};
use ix_core::dataplane::Dataplane;
use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_core::params::CostParams;
use ix_net::Ipv4Addr;
use ix_sim::SimRng;
use ix_tcp::{DeadReason, StackConfig};
use ix_testkit::Bytes;

use crate::acct::{quantile, Acct, Tok};
use crate::bed::{drive_to, Checks, ChecksRef};
use crate::trace::{wrap, Side};

/// What the agent sends.
#[derive(Debug, Clone)]
pub enum AgentReq {
    /// KV operations drawn from a workload; responses checked against
    /// the agent's own SETs (exact: it is the only client).
    Kv(Workload),
    /// Echo RPCs of this many bytes.
    Echo(usize),
}

/// The agent's one outstanding request.
#[derive(Debug, Clone, Copy)]
struct Awaiting {
    tok: Tok,
    /// Expected response length.
    len: usize,
    /// Expected first value byte of a KV GET response.
    first: Option<u8>,
    /// Payload bytes the exchange moves.
    moved: u64,
}

/// One-at-a-time latency sampler.
struct Agent {
    server: Ipv4Addr,
    port: u16,
    req: AgentReq,
    rng: SimRng,
    gap_mean_ns: f64,
    left: usize,
    acct: Rc<RefCell<Acct>>,
    checks: ChecksRef,
    cookie: Option<u64>,
    started: bool,
    next_fire_ns: u64,
    awaiting: Option<Awaiting>,
    rx: Vec<u8>,
    seq: u64,
    /// `(key, key_len)` → value length of the agent's last SET.
    stored: HashMap<(u64, usize), usize>,
}

impl Agent {
    /// Builds the next request, due at `due` and sent at `now`.
    fn build(&mut self, due: u64, now: u64) -> Bytes {
        let tok = self.acct.borrow_mut().due(due);
        self.acct.borrow_mut().issued(tok, now);
        self.left -= 1;
        self.seq += 1;
        let (bytes, rsp_len, first) = match &self.req {
            AgentReq::Echo(n) => (vec![0u8; *n], *n, None),
            AgentReq::Kv(wl) => {
                let op = wl.next_op(&mut self.rng);
                let key = Workload::key_bytes(op.key, op.key_len);
                if op.is_get {
                    let (len, first) = match self.stored.get(&(op.key, op.key_len)) {
                        Some(&len) => (len, b'w'),
                        None => (op.val_len, b'v'),
                    };
                    let req =
                        proto::encode_request(proto::OP_GET, self.seq, &key, &vec![0; op.val_len]);
                    (req, proto::RSP_HDR + len, Some(first))
                } else {
                    self.stored.insert((op.key, op.key_len), op.val_len);
                    let req = proto::encode_request(
                        proto::OP_SET,
                        self.seq,
                        &key,
                        &vec![b'w'; op.val_len],
                    );
                    (req, proto::RSP_HDR, None)
                }
            }
        };
        self.awaiting = Some(Awaiting {
            tok,
            len: rsp_len,
            first,
            moved: (bytes.len() + rsp_len) as u64,
        });
        Bytes::from(bytes)
    }

    fn complete(&mut self, now: u64) {
        let a = self.awaiting.take().expect("a request is outstanding");
        if self.rx.len() != a.len {
            self.checks.borrow_mut().fail(format!(
                "agent: response of {} bytes, expected {}",
                self.rx.len(),
                a.len
            ));
        } else if let AgentReq::Kv(_) = self.req {
            let h = proto::decode_response_header(&self.rx).expect("complete header");
            let ok = h.status == proto::ST_OK
                && h.seq == self.seq
                && a.first
                    .is_none_or(|b| self.rx.get(proto::RSP_HDR) == Some(&b));
            if !ok {
                self.checks
                    .borrow_mut()
                    .fail(format!("agent: bad KV response {h:?}"));
            }
        }
        self.rx.clear();
        self.acct.borrow_mut().done(a.tok, now, a.moved);
        self.next_fire_ns = now + self.rng.exponential(self.gap_mean_ns) as u64;
    }
}

impl LibixHandler for Agent {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started {
            self.started = true;
            ctx.connect(self.server, self.port, 0);
            return;
        }
        if let Some(cookie) = self.cookie {
            if self.awaiting.is_none() && self.left > 0 && self.next_fire_ns <= ctx.now_ns {
                let req = self.build(self.next_fire_ns, ctx.now_ns);
                ctx.write_to(cookie, req);
            }
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        if !ok {
            self.checks
                .borrow_mut()
                .fail("agent: connect failed".into());
            return;
        }
        self.cookie = Some(ctx.conn.cookie);
        let req = self.build(ctx.now_ns, ctx.now_ns);
        ctx.write(req);
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        self.rx.extend_from_slice(data);
        let Some(a) = self.awaiting else {
            self.checks
                .borrow_mut()
                .fail("agent: data with nothing outstanding".into());
            return;
        };
        if self.rx.len() >= a.len {
            self.complete(ctx.now_ns);
        }
    }

    fn on_dead(&mut self, _ctx: &mut ConnCtx<'_>, reason: DeadReason) {
        self.checks
            .borrow_mut()
            .fail(format!("agent: connection died: {reason:?}"));
    }

    fn wants_tick(&self, now_ns: u64) -> bool {
        !self.started || (self.awaiting.is_none() && self.left > 0 && self.next_fire_ns <= now_ns)
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        (self.started && self.awaiting.is_none() && self.left > 0).then_some(self.next_fire_ns)
    }
}

/// The server the agent measures: IX with default cost and stack
/// settings on `ports` bonded ports and `cores` elastic threads.
pub struct AgentServer {
    /// Bonded 10GbE ports.
    pub ports: usize,
    /// Elastic threads.
    pub cores: usize,
    /// Listening port.
    pub port: u16,
}

/// Samples `n` one-at-a-time latencies (mean gap `gap_ns`, exponential)
/// against a fresh idle server whose per-thread handler `handler`
/// builds. Returns the p99 in µs, failures counted as misses; failed
/// output checks land in `checks`.
pub fn unloaded_p99_us<H: LibixHandler + 'static>(
    seed: u64,
    srv: &AgentServer,
    mut handler: impl FnMut() -> H,
    req: AgentReq,
    n: usize,
    gap_ns: u64,
    checks: &mut Checks,
) -> f64 {
    let agent_checks: ChecksRef = Rc::new(RefCell::new(Checks::default()));
    // Generous horizon: each sample takes well under a millisecond.
    let deadline = 1_000_000 * n as u64;
    let acct = Rc::new(RefCell::new(Acct::new(0, deadline, deadline)));
    let mut tb = Testbed::new(seed, srv.ports, 1);
    let host = tb.fabric.host(tb.server);
    let dp = Dataplane::launch(
        &mut tb.sim,
        host,
        srv.cores,
        CostParams::default(),
        StackConfig::default(),
        Some(srv.port),
        |_| wrap(handler(), Side::Server, None),
    );
    let (sip, smac) = (host.ip, host.mac);
    let client = tb.fabric.host(tb.clients[0]);
    let agent = Agent {
        server: sip,
        port: srv.port,
        req,
        rng: SimRng::new(seed ^ 0xa9e7_5eed),
        gap_mean_ns: gap_ns as f64,
        left: n,
        acct: acct.clone(),
        checks: agent_checks.clone(),
        cookie: None,
        started: false,
        next_fire_ns: 0,
        awaiting: None,
        rx: Vec::new(),
        seq: 0,
        stored: HashMap::new(),
    };
    let mut agent = Some(agent);
    let lh = LinuxHost::launch(
        &mut tb.sim,
        client,
        1,
        LinuxParams::default(),
        StackConfig::default(),
        None,
        |_| wrap(agent.take().expect("one agent thread"), Side::Client, None),
    );
    lh.seed_arp(sip, smac);
    dp.seed_arp(client.ip, client.mac);
    tb.engine = Some(ServerEngine::Ix(dp));
    let mut t = 0;
    while acct.borrow().done_total < n as u64 && t < deadline {
        t += 10_000_000;
        drive_to(&mut tb.sim, t);
    }
    let w = acct.borrow().evaluate();
    if w.completed != n as u64 {
        checks.fail(format!("agent: {} of {n} samples completed", w.completed));
    }
    for e in agent_checks.borrow().first.iter() {
        checks.fail(e.clone());
    }
    drop(lh);
    quantile(&w.latencies, 0.99) as f64 / 1e3
}
