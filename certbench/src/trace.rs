//! In-memory span recorder for the traced mode.
//!
//! The benchmark records a span around each of its own calls into a
//! layer's public functions: name, start, end, the span that caused it
//! and the request it served. Spans stay in memory and are written out
//! once the run ends; per-layer durations and self times are derived
//! from them. With tracing off every method returns at once, so the
//! untraced end-to-end runs pay nothing for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept at most; later ones are counted and dropped.
const MAX_SPANS: usize = 2_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// Id of the causing span, 0 for none.
    pub parent: u32,
    /// Request the span served, 0 for none.
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU32::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id, for a parent whose children finish before it
    /// does (0 with tracing off).
    pub fn id(&self) -> u32 {
        if !self.enabled {
            return 0;
        }
        // Relaxed: the id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a pre-allocated `id`.
    pub fn record(
        &self,
        id: u32,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            req,
            name,
            start: since(start),
            end: since(end),
        };
        let mut spans = self.spans.lock().expect("span buffer poisoned by a panic");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(&self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, name, parent, 0, start, Instant::now());
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span buffer poisoned by a panic");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e3)
            .collect()
    }

    /// Per span name: count, total time and self time (total minus the
    /// time of direct children), in nanoseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans.lock().expect("span buffer poisoned by a panic");
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.nanos();
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let e = out.entry(s.name).or_default();
            let own = s.nanos();
            e.0 += 1;
            e.1 += own;
            e.2 += own.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panic")
            .len()
    }

    /// Write every span as tab-separated lines under `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span buffer poisoned by a panic");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            )?;
        }
        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            writeln!(w, "# {dropped} spans dropped past the in-memory cap")?;
        }
        w.flush()
    }
}
