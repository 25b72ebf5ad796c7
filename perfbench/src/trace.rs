//! Construction spans from the `pram::phase` seam, timed on this side.
//!
//! The algorithm crates never read a clock; they only mark phase
//! boundaries. The hook installed here stamps those boundaries with wall
//! time and folds them into per-phase *self* time: a span's duration minus
//! the part covered by its child spans. The benchmark opens a root span of
//! its own around `Oracle::build`, so whatever the build does outside the
//! library's scopes shows up as that root's self time.

use pram_sssp::pram::phase::{install_phase_hook, PhaseEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Aggregated self time of one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStats {
    pub name: &'static str,
    pub count: u64,
    pub self_s: f64,
}

struct Open {
    name: &'static str,
    start: Instant,
    children: Duration,
}

struct Spans {
    stack: Vec<Open>,
    done: Vec<SpanStats>,
}

/// Spans are recorded only inside [`collect`]; builds outside it (a later
/// workload's untraced set-ups) pass through the hook untouched.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static SPANS: Mutex<Spans> = Mutex::new(Spans {
    stack: Vec::new(),
    done: Vec::new(),
});

fn spans() -> std::sync::MutexGuard<'static, Spans> {
    // A span update never leaves the table half-written, so a poisoned
    // lock still holds consistent data.
    SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

fn enter(name: &'static str) {
    spans().stack.push(Open {
        name,
        start: Instant::now(),
        children: Duration::ZERO,
    });
}

fn exit(name: &'static str) {
    let now = Instant::now();
    let mut s = spans();
    // Construction scopes run on the coordinating thread and unwind LIFO;
    // an exit that does not match the top span is dropped, not misfiled.
    if s.stack.last().is_none_or(|o| o.name != name) {
        return;
    }
    let open = s.stack.pop().expect("checked non-empty");
    let dur = now - open.start;
    if let Some(parent) = s.stack.last_mut() {
        parent.children += dur;
    }
    let self_s = dur.saturating_sub(open.children).as_secs_f64();
    match s.done.iter_mut().find(|d| d.name == name) {
        Some(d) => {
            d.count += 1;
            d.self_s += self_s;
        }
        None => s.done.push(SpanStats {
            name,
            count: 1,
            self_s,
        }),
    }
}

fn hook(ev: PhaseEvent, name: &'static str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    match ev {
        PhaseEvent::Enter => enter(name),
        PhaseEvent::Exit => exit(name),
    }
}

/// Start observing construction phases. The seam takes one hook per
/// process, so untraced measurements must be taken before this call.
pub fn install() {
    install_phase_hook(hook);
}

/// Run `f` inside a root span `name` and return its result together with
/// every span closed during it (the root included), in first-exit order.
pub fn collect<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Vec<SpanStats>) {
    spans().done.clear();
    ACTIVE.store(true, Ordering::Relaxed);
    enter(name);
    let r = f();
    exit(name);
    ACTIVE.store(false, Ordering::Relaxed);
    (r, std::mem::take(&mut spans().done))
}
