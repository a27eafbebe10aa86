//! Outside-in tracing: host-time shims around the program's public
//! application interfaces, and a span log for the benchmark's phases.
//!
//! The benchmark does not instrument the program. It times only calls
//! it makes itself, or calls the program makes into objects the
//! benchmark handed it:
//!
//! * [`AppShim`] wraps the [`IxApp`] the engines drive (libix plus the
//!   application), timing every `on_cycle`, `wants_cycle` and
//!   `next_deadline_ns`;
//! * [`HandlerShim`] wraps the [`LibixHandler`] inside it (the
//!   application proper), timing every callback.
//!
//! The handler's time nests inside the app shim's, so libix's self time
//! is `app − handler`. Everything else in the benchmark's step loop —
//! dataplane cycle, TCP, NIC and switch, the Linux client model, the
//! event scheduler — is reported as unattributed.

use std::any::Any;
use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use ix_core::api::{IxApp, UserCtx};
use ix_core::dataplane::ThreadRef;
use ix_core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix_tcp::DeadReason;
use ix_testkit::Bytes;

/// Which end of the testbed an application runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The server under test.
    Server = 0,
    /// Load generators, agents and the NetPIPE initiator.
    Client = 1,
}

/// Host nanoseconds accumulated by the shims, per side.
#[derive(Debug, Default)]
pub struct Clocks {
    /// Inside [`AppShim`] calls (includes the handler's time).
    pub app_ns: [Cell<u64>; 2],
    /// Inside [`HandlerShim`] callbacks.
    pub handler_ns: [Cell<u64>; 2],
}

/// A point-in-time copy of [`Clocks`]:
/// `[server app, server handler, client app, client handler]`.
pub type ClockSnap = [u64; 4];

impl Clocks {
    fn add(cell: &Cell<u64>, since: Instant) {
        cell.set(cell.get() + since.elapsed().as_nanos() as u64);
    }

    /// Copies the accumulated times.
    pub fn snap(&self) -> ClockSnap {
        [
            self.app_ns[0].get(),
            self.handler_ns[0].get(),
            self.app_ns[1].get(),
            self.handler_ns[1].get(),
        ]
    }
}

/// Times the libix + application stack an engine drives.
pub struct AppShim<H: LibixHandler + 'static> {
    /// The wrapped libix instance.
    pub inner: Libix<HandlerShim<H>>,
    clocks: Rc<Clocks>,
    side: usize,
}

impl<H: LibixHandler + 'static> IxApp for AppShim<H> {
    fn on_cycle(&mut self, ctx: &mut UserCtx) {
        let t = Instant::now();
        self.inner.on_cycle(ctx);
        Clocks::add(&self.clocks.app_ns[self.side], t);
    }

    fn wants_cycle(&self, now_ns: u64) -> bool {
        let t = Instant::now();
        let r = self.inner.wants_cycle(now_ns);
        Clocks::add(&self.clocks.app_ns[self.side], t);
        r
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        let t = Instant::now();
        let r = self.inner.next_deadline_ns();
        Clocks::add(&self.clocks.app_ns[self.side], t);
        r
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Times an application's libix callbacks.
pub struct HandlerShim<H> {
    inner: H,
    clocks: Rc<Clocks>,
    side: usize,
}

impl<H> HandlerShim<H> {
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        Clocks::add(&self.clocks.handler_ns[self.side], t);
        r
    }
}

impl<H: LibixHandler> LibixHandler for HandlerShim<H> {
    fn on_accept(&mut self, ctx: &mut ConnCtx<'_>) {
        let t = Instant::now();
        self.inner.on_accept(ctx);
        Clocks::add(&self.clocks.handler_ns[self.side], t);
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        let t = Instant::now();
        self.inner.on_connected(ctx, ok);
        Clocks::add(&self.clocks.handler_ns[self.side], t);
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let t = Instant::now();
        self.inner.on_data(ctx, data);
        Clocks::add(&self.clocks.handler_ns[self.side], t);
    }

    fn on_sent(&mut self, ctx: &mut ConnCtx<'_>) {
        let t = Instant::now();
        self.inner.on_sent(ctx);
        Clocks::add(&self.clocks.handler_ns[self.side], t);
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, reason: DeadReason) {
        let t = Instant::now();
        self.inner.on_dead(ctx, reason);
        Clocks::add(&self.clocks.handler_ns[self.side], t);
    }

    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        let t = Instant::now();
        self.inner.on_tick(ctx);
        Clocks::add(&self.clocks.handler_ns[self.side], t);
    }

    fn wants_tick(&self, now_ns: u64) -> bool {
        self.timed(|| self.inner.wants_tick(now_ns))
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        self.timed(|| self.inner.next_deadline_ns())
    }
}

/// Builds the app an engine runs: plain libix over `h` untraced, the
/// shimmed stack when `clocks` is given.
pub fn wrap<H: LibixHandler + 'static>(
    h: H,
    side: Side,
    clocks: Option<&Rc<Clocks>>,
) -> Box<dyn IxApp> {
    match clocks {
        None => Box::new(Libix::new(h)),
        Some(c) => {
            let side = side as usize;
            let inner = HandlerShim {
                inner: h,
                clocks: c.clone(),
                side,
            };
            Box::new(AppShim {
                inner: Libix::new(inner),
                clocks: c.clone(),
                side,
            })
        }
    }
}

/// Writes libix refused for its pending-byte cap, summed over an
/// engine's threads whose apps [`wrap`] built around an `H`, traced or
/// not.
pub fn cap_rejections<H: LibixHandler + 'static>(threads: &[ThreadRef]) -> u64 {
    threads
        .iter()
        .map(|th| {
            let mut t = th.borrow_mut();
            let any = t.app_mut().as_any();
            if let Some(l) = any.downcast_mut::<Libix<H>>() {
                l.stats.cap_rejections
            } else if let Some(s) = any.downcast_mut::<AppShim<H>>() {
                s.inner.stats.cap_rejections
            } else {
                panic!("engine app is not a wrapped {}", std::any::type_name::<H>());
            }
        })
        .sum()
}

/// CPU time the calling thread has consumed, ns. Host timings of the
/// benchmark use it instead of the wall clock: on a shared machine the
/// wall clock also counts time the scheduler (or the hypervisor) gave to
/// someone else.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `timespec` through the
    // pointer, which refers to a live, exclusively borrowed local whose
    // layout matches the C struct on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One timed phase of the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name.
    pub name: String,
    /// Start, host CPU ns since the log's epoch.
    pub start_ns: u64,
    /// End, host CPU ns since the log's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span log, written out once the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    epoch: u64,
    /// Spans in opening order.
    pub list: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock ([`cpu_ns`]) starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: cpu_ns(),
            list: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        cpu_ns() - self.epoch
    }

    /// Opens a span; returns its index.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.list.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            parent,
        });
        self.list.len() - 1
    }

    /// Closes span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now();
        let s = &mut self.list[id];
        s.end_ns = end;
        (end - s.start_ns) as f64 / 1e9
    }

    /// The log as JSON lines, plus one line per accumulated shim total
    /// (`aggregates`: name → host ns inside the window).
    pub fn to_json_lines(&self, aggregates: &[(&str, u64)]) -> String {
        let mut out = String::new();
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        for (name, ns) in aggregates {
            let _ = writeln!(out, "{{\"aggregate\": \"{name}\", \"host_ns\": {ns}}}");
        }
        out
    }
}
