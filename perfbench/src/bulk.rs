//! `bulk_ix`: NetPIPE with 64 KiB messages, IX on both ends, one flow
//! (paper §5.2, Fig 2). No Linux model and almost no application work:
//! the host time is the IX per-segment path.

use std::cell::RefCell;
use std::rc::Rc;

use ix_apps::harness::{ServerEngine, Testbed};
use ix_apps::netpipe::NetpipeServer;
use ix_core::dataplane::Dataplane;
use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_core::params::CostParams;
use ix_net::Ipv4Addr;
use ix_tcp::{DeadReason, StackConfig};
use ix_testkit::Bytes;

use crate::acct::{Acct, Tok};
use crate::bed::{timed_setup, Bed, Checks, ChecksRef, Plan};
use crate::trace::{cap_rejections, wrap, Clocks, Side, Spans};

/// Message size.
pub const MSG: usize = 64 * 1024;
/// Service port.
pub const PORT: u16 = 7100;
/// Maximum per-message server jitter, ns (the harness's NetPIPE value).
pub const JITTER_NS: u64 = 400;
/// The handshake and first exchanges are done by here.
pub const RAMP_END_NS: u64 = 1_000_000;
/// The window opens here.
pub const T0_NS: u64 = 2_000_000;
/// Window, drain and host slice. The window holds over 10,000 round
/// trips, so the p99.9 has ten samples beyond it.
pub const PLAN: Plan = Plan {
    win_ns: 1_800_000_000,
    drain_ns: 10_000_000,
    chunk_ns: 10_000_000,
};

/// The NetPIPE initiator: one message in flight, the next sent the
/// instant the echo of the last completes.
struct PingPong {
    server: Ipv4Addr,
    start_after_ns: u64,
    started: bool,
    got: usize,
    tok: Tok,
    acct: Rc<RefCell<Acct>>,
    checks: ChecksRef,
    template: Bytes,
}

impl PingPong {
    fn fire(&mut self, ctx: &mut ConnCtx<'_>) {
        let mut acct = self.acct.borrow_mut();
        self.tok = acct.due(ctx.now_ns);
        acct.issued(self.tok, ctx.now_ns);
        ctx.write(self.template.clone());
    }
}

impl LibixHandler for PingPong {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started && ctx.now_ns >= self.start_after_ns {
            self.started = true;
            ctx.connect(self.server, PORT, 0);
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        if ok {
            self.acct.borrow_mut().established += 1;
            self.fire(ctx);
        }
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        self.got += data.len();
        if self.got > MSG {
            self.checks
                .borrow_mut()
                .fail(format!("{} echo bytes for a {MSG}-byte message", self.got));
        }
        if self.got >= MSG {
            self.got = 0;
            self.acct
                .borrow_mut()
                .done(self.tok, ctx.now_ns, 2 * MSG as u64);
            self.fire(ctx);
        }
    }

    fn on_dead(&mut self, _ctx: &mut ConnCtx<'_>, reason: DeadReason) {
        self.checks
            .borrow_mut()
            .fail(format!("NetPIPE connection died: {reason:?}"));
    }

    fn wants_tick(&self, _now_ns: u64) -> bool {
        !self.started
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        (!self.started).then_some(self.start_after_ns)
    }
}

/// Builds the two-host NetPIPE testbed and parks it at the window
/// opening. The seed enters as in the harness: the client's start
/// phase and the server's per-message jitter stream.
pub fn build(seed: u64, clocks: Option<&Rc<Clocks>>, spans: &mut Spans) -> Bed {
    let t1 = T0_NS + PLAN.win_ns;
    let acct = Rc::new(RefCell::new(Acct::new(T0_NS, t1, t1 + PLAN.drain_ns)));
    let checks: ChecksRef = Rc::new(RefCell::new(Checks::default()));
    timed_setup(
        spans,
        || Testbed::new(seed, 1, 1),
        |mut tb| {
            let start_after_ns = tb.sim.rng().below(2_000);
            let srv_rng = tb.sim.rng().fork();
            let host = tb.fabric.host(tb.server);
            let dp = Dataplane::launch(
                &mut tb.sim,
                host,
                1,
                CostParams::default(),
                StackConfig::default(),
                Some(PORT),
                |_| {
                    wrap(
                        NetpipeServer::new(MSG).with_jitter(srv_rng.clone(), JITTER_NS),
                        Side::Server,
                        clocks,
                    )
                },
            );
            let (sip, smac) = (host.ip, host.mac);
            acct.borrow_mut().dials = 1;
            let client = tb.fabric.host(tb.clients[0]);
            let ping = PingPong {
                server: sip,
                start_after_ns,
                started: false,
                got: 0,
                tok: None,
                acct: acct.clone(),
                checks: checks.clone(),
                template: Bytes::from(vec![0u8; MSG]),
            };
            let mut ping = Some(ping);
            let cdp = Dataplane::launch(
                &mut tb.sim,
                client,
                1,
                CostParams::default(),
                StackConfig::default(),
                None,
                |_| {
                    wrap(
                        ping.take().expect("one client thread"),
                        Side::Client,
                        clocks,
                    )
                },
            );
            dp.seed_arp(client.ip, client.mac);
            cdp.seed_arp(sip, smac);
            tb.engine = Some(ServerEngine::Ix(dp));
            Bed {
                tb,
                linux_clients: Vec::new(),
                client_threads: 1,
                ix_client: Some(cdp),
                acct: acct.clone(),
                store: None,
                checks: checks.clone(),
                clocks: clocks.cloned(),
                server_cap_rejections: cap_rejections::<NetpipeServer>,
                setup: Default::default(),
            }
        },
        RAMP_END_NS,
        T0_NS,
        PLAN.chunk_ns,
    )
}
