//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer of the program; the program itself is not instrumented. A span
//! has a name, a start and an end, the span that caused it, and the id of
//! the request it belongs to. Spans stay in memory (up to a cap) and are
//! written at exit as Chrome trace-event JSON in the shape
//! `sam_core::obs::ScanReport::chrome_trace_json` uses, so one viewer opens
//! both.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept at most; later ones are counted and dropped.
const MAX_SPANS: usize = 250_000;

#[derive(Clone, Copy)]
struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

/// Index of an open span, or `NONE` when the recorder is off or full.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Rec>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span; close it with [`Tracer::close`]. A no-op when off.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Rec {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            req,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    #[inline]
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// The self-time table, one span name per line, sorted by self time:
    /// a span's self time is its duration minus the time its direct
    /// children cover (children of one parent never overlap: every span
    /// is opened and closed on the recording thread in call order).
    pub fn self_time_table(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 / 1e3, own as f64 / 1e3))
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        let all: f64 = rows.iter().map(|r| r.3).sum();
        let mut out = format!(
            "{:<28} {:>9} {:>14} {:>14} {:>7}\n",
            "span", "count", "total_us", "self_us", "self%"
        );
        for (name, n, total, own) in rows {
            out.push_str(&format!(
                "{name:<28} {n:>9} {total:>14.1} {own:>14.1} {:>6.1}%\n",
                100.0 * own / all.max(f64::MIN_POSITIVE)
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "({} spans past the {MAX_SPANS}-span cap dropped)\n",
                self.dropped
            ));
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON.
    pub fn write_chrome_trace(&self, w: &mut impl Write, process: &str) -> std::io::Result<()> {
        write!(
            w,
            "{{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n    \
             {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"name\": \"{process}\"}}}}"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                w,
                ",\n    {{\"name\": \"{}\", \"cat\": \"layer\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 0, \"tid\": 0, \
                 \"args\": {{\"id\": {i}, \"parent\": {parent}, \"req\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req
            )?;
        }
        writeln!(w, "\n  ]\n}}")
    }
}
