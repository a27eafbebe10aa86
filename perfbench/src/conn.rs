//! `conn_scale`: paper Fig 4 at 100k connections — 64 B echo RPCs on an
//! 8-core IX server behind 4×10GbE, closed loop, 3 RPCs outstanding per
//! client thread (18 × 8 threads) rotating over every connection.
//!
//! The client keeps the harness's Fig 4 dial schedule unchanged: every
//! thread dials at once in batches of 64 open handshakes, rotation
//! starts 5 ms before the end of the `20 ms + 1.5 µs × conns` ramp, and
//! the window opens 10 ms after it. The SYN burst loses connections;
//! they count as failed dials.

use std::cell::RefCell;
use std::rc::Rc;

use ix_apps::echo::{EchoServer, ReadyRing};
use ix_apps::harness::{ServerEngine, Testbed};
use ix_baselines::linux::{LinuxHost, LinuxParams};
use ix_core::dataplane::Dataplane;
use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_core::params::CostParams;
use ix_net::Ipv4Addr;
use ix_sim::SimRng;
use ix_tcp::{DeadReason, StackConfig};
use ix_testkit::Bytes;

use crate::acct::{Acct, Tok};
use crate::agent::{unloaded_p99_us, AgentReq, AgentServer};
use crate::bed::{timed_setup, Bed, Checks, ChecksRef, Plan};
use crate::trace::{cap_rejections, wrap, Clocks, Side, Spans};

/// Connections the clients dial.
pub const TOTAL_CONNS: usize = 100_000;
/// Client machines.
pub const N_CLIENTS: usize = 18;
/// Threads per client machine.
pub const THREADS: usize = 8;
/// RPCs each client thread keeps outstanding.
pub const OUTSTANDING: usize = 3;
/// Server elastic threads.
pub const SERVER_CORES: usize = 8;
/// Bonded 10GbE server ports.
pub const SERVER_PORTS: usize = 4;
/// Echo message size.
pub const MSG: usize = 64;
/// Echo server CPU per request, ns (the harness's Fig 4 setting).
pub const SERVICE_NS: u64 = 120;
/// Service port.
pub const PORT: u16 = 7000;
/// Handshakes a thread keeps open at once while dialing.
pub const RAMP_BATCH: usize = 64;
/// End of the dial ramp (the harness's Fig 4 budget).
pub const RAMP_END_NS: u64 = 20_000_000 + TOTAL_CONNS as u64 * 1_500;
/// Rotation starts this long before the ramp ends, over whatever
/// established.
pub const START_BEFORE_RAMP_END_NS: u64 = 5_000_000;
/// Each client thread starts rotating up to this much later, at a
/// phase drawn from the seed — the workload's one stochastic input (the
/// dial schedule and the echo path draw nothing).
pub const START_JITTER_NS: u64 = 2_000;
/// The window opens here.
pub const T0_NS: u64 = RAMP_END_NS + 10_000_000;
/// Window, drain and host slice. The window is long against the
/// seconds-long set-up so each repetition measures enough host time.
pub const PLAN: Plan = Plan {
    win_ns: 40_000_000,
    drain_ns: 2_000_000,
    chunk_ns: 1_000_000,
};
/// Unloaded-agent samples and mean gap between them.
pub const AGENT_SAMPLES: usize = 2_000;
/// See [`AGENT_SAMPLES`].
pub const AGENT_GAP_NS: u64 = 50_000;

/// Per-connection client state.
#[derive(Debug, Clone, Copy)]
struct Slot {
    cookie: u64,
    /// Response bytes received for the outstanding RPC.
    got: usize,
    tok: Tok,
}

/// One rotating closed-loop client thread.
struct ConnGen {
    server: Ipv4Addr,
    conns: usize,
    start_at_ns: u64,
    acct: Rc<RefCell<Acct>>,
    checks: ChecksRef,
    slots: Vec<Option<Slot>>,
    /// Set ⇔ the connection is established and idle.
    ring: ReadyRing,
    opened: usize,
    connected: usize,
    rotating: bool,
    template: Bytes,
}

impl ConnGen {
    /// Fires one RPC on the next idle connection in rotation.
    fn fire_next(&mut self, now: u64, mut write: impl FnMut(u64, Bytes)) {
        let Some(user) = self.ring.take_next() else {
            return;
        };
        self.ring.clear(user);
        let mut acct = self.acct.borrow_mut();
        let tok = acct.due(now);
        acct.issued(tok, now);
        let slot = self.slots[user]
            .as_mut()
            .expect("ready implies established");
        slot.tok = tok;
        write(slot.cookie, self.template.clone());
    }

    fn start_rotation(&mut self, now: u64, mut write: impl FnMut(u64, Bytes)) {
        self.rotating = true;
        for _ in 0..OUTSTANDING {
            self.fire_next(now, &mut write);
        }
    }
}

impl LibixHandler for ConnGen {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        while self.opened < self.conns && self.opened < self.connected + RAMP_BATCH {
            ctx.connect(self.server, PORT, self.opened as u64);
            self.opened += 1;
        }
        if !self.rotating && ctx.now_ns >= self.start_at_ns && self.connected > 0 {
            let now = ctx.now_ns;
            self.start_rotation(now, |cookie, data| ctx.write_to(cookie, data));
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        if !ok {
            return; // A failed dial: counted against `established`.
        }
        let user = ctx.conn.user as usize;
        self.slots[user] = Some(Slot {
            cookie: ctx.conn.cookie,
            got: 0,
            tok: None,
        });
        self.ring.set(user);
        self.connected += 1;
        self.acct.borrow_mut().established += 1;
        if self.connected == self.conns && !self.rotating {
            let (me, now) = (ctx.conn.cookie, ctx.now_ns);
            self.start_rotation(now, |cookie, data| {
                if cookie == me {
                    ctx.write(data);
                } else {
                    ctx.write_to(cookie, data);
                }
            });
        }
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let user = ctx.conn.user as usize;
        let now = ctx.now_ns;
        let Some(slot) = self.slots.get_mut(user).and_then(Option::as_mut) else {
            return;
        };
        slot.got += data.len();
        // One RPC outstanding per connection: the echo can never exceed
        // the request.
        if slot.got > MSG {
            self.checks.borrow_mut().fail(format!(
                "conn {user}: {} echo bytes for a {MSG}-byte RPC",
                slot.got
            ));
        }
        if slot.got < MSG {
            return;
        }
        slot.got = 0;
        self.acct.borrow_mut().done(slot.tok, now, 2 * MSG as u64);
        self.ring.set(user);
        let me = ctx.conn.cookie;
        self.fire_next(now, |cookie, d| {
            if cookie == me {
                ctx.write(d);
            } else {
                ctx.write_to(cookie, d);
            }
        });
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, reason: DeadReason) {
        self.checks.borrow_mut().fail(format!(
            "echo connection {} died: {reason:?}",
            ctx.conn.user
        ));
    }

    fn wants_tick(&self, now_ns: u64) -> bool {
        self.opened < self.conns || (!self.rotating && now_ns >= self.start_at_ns)
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        (!self.rotating).then_some(self.start_at_ns)
    }
}

/// Builds the conn_scale testbed and parks it at the window opening.
pub fn build(seed: u64, clocks: Option<&Rc<Clocks>>, spans: &mut Spans) -> Bed {
    let t1 = T0_NS + PLAN.win_ns;
    let acct = Rc::new(RefCell::new(Acct::new(T0_NS, t1, t1 + PLAN.drain_ns)));
    let checks: ChecksRef = Rc::new(RefCell::new(Checks::default()));
    timed_setup(
        spans,
        || Testbed::new(seed, SERVER_PORTS, N_CLIENTS),
        |mut tb| {
            let host = tb.fabric.host(tb.server);
            let dp = Dataplane::launch(
                &mut tb.sim,
                host,
                SERVER_CORES,
                CostParams::default(),
                StackConfig::default(),
                Some(PORT),
                |_| wrap(EchoServer::new(MSG, SERVICE_NS), Side::Server, clocks),
            );
            let (sip, smac) = (host.ip, host.mac);
            let per_thread = TOTAL_CONNS.div_ceil(N_CLIENTS * THREADS);
            acct.borrow_mut().dials = (per_thread * N_CLIENTS * THREADS) as u64;
            let template = Bytes::from(vec![0u8; MSG]);
            let mut phase = SimRng::new(seed ^ 0xc0_5ca1e);
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
                        let gen = ConnGen {
                            server: sip,
                            conns: per_thread,
                            start_at_ns: RAMP_END_NS - START_BEFORE_RAMP_END_NS
                                + phase.below(START_JITTER_NS),
                            acct: acct.clone(),
                            checks: checks.clone(),
                            slots: vec![None; per_thread],
                            ring: ReadyRing::new(per_thread),
                            opened: 0,
                            connected: 0,
                            rotating: false,
                            template: template.clone(),
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
                store: None,
                checks: checks.clone(),
                clocks: clocks.cloned(),
                server_cap_rejections: cap_rejections::<EchoServer>,
                setup: Default::default(),
            }
        },
        RAMP_END_NS,
        T0_NS,
        PLAN.chunk_ns,
    )
}

/// The unloaded agent's p99 for 64 B echo RPCs against an idle
/// conn_scale server, µs.
pub fn unloaded_p99_us_echo(seed: u64, checks: &mut Checks) -> f64 {
    unloaded_p99_us(
        seed,
        &AgentServer {
            ports: SERVER_PORTS,
            cores: SERVER_CORES,
            port: PORT,
        },
        || EchoServer::new(MSG, SERVICE_NS),
        AgentReq::Echo(MSG),
        AGENT_SAMPLES,
        AGENT_GAP_NS,
        checks,
    )
}
