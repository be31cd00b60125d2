//! Span/event tracer: per-thread ring buffers behind one atomic flag.
//!
//! # Recording model
//!
//! * [`enabled`] is a process-global `AtomicBool`. Every instrumentation
//!   point ([`span`], [`instant`]) loads it once (relaxed) and records
//!   nothing when tracing is off: no allocation and no lock.
//! * A span is also the clock of the phase it covers. Opening one reads
//!   the monotonic clock once, tracing on or off, and
//!   [`SpanGuard::finish`] reads it again to close the span and return
//!   its seconds. With tracing on, the begin and end events carry those
//!   same two readings, so a stats report built from `finish` and the
//!   trace's span durations agree to the trace's 1 µs resolution. An
//!   [`instant`] with tracing off reads no clock.
//! * When enabled, an event is pushed into the calling thread's own ring
//!   buffer (a `thread_local` registered in a process-global list so it
//!   can be drained after the thread exits). A full ring drops its
//!   **oldest** event and counts the drop; overflow never corrupts or
//!   reallocates.
//! * Timestamps are microseconds on the monotonic clock, relative to a
//!   process-global epoch taken on first use. The epoch also captures a
//!   wall-clock anchor (`unix_us`) so traces from different processes of
//!   the same run can be merged onto one timeline.
//! * [`set_identity`] tags the process with the distributed run id and
//!   worker rank ([`COORDINATOR_RANK`] for the coordinator); both are
//!   stamped into every drained record.
//!
//! # On-disk format
//!
//! [`render_jsonl`] drains every ring into line-oriented JSON:
//!
//! ```text
//! {"type":"meta","schema_version":1,"run_id":"0x1d","pid":0,"unix_us":...}
//! {"type":"event","ph":"B","t_us":12,"pid":0,"tid":0,"name":"init","arg":0}
//! {"type":"event","ph":"E","t_us":480,"pid":0,"tid":0,"name":"init","arg":0}
//! {"type":"event","ph":"I","t_us":501,"pid":0,"tid":1,"name":"spill:write","arg":4096}
//! {"type":"dropped","pid":0,"tid":1,"dropped_events":17}
//! ```
//!
//! `pid` is the *logical* process id — the worker rank, or
//! [`COORDINATOR_RANK`] — not the OS pid, so merged timelines read as
//! cluster topology. [`merge_jsonl`] concatenates files from several
//! processes, rebases each file's timestamps onto the earliest wall-clock
//! anchor, and emits one monotonic timeline; [`validate_jsonl`] checks
//! schema keys, span nesting, timestamp monotonicity, and run-id
//! consistency; [`chrome_trace`] converts to the Chrome `trace_event`
//! JSON that `chrome://tracing` / Perfetto load directly.

use mining_types::json::{parse, Obj, Value};
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime};

/// Bump when the JSONL record layout changes.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// The logical process id used by the coordinator (workers use their
/// rank, `0..num_workers`).
pub const COORDINATOR_RANK: u32 = u32::MAX;

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static RUN_ID: AtomicU64 = AtomicU64::new(0);
static RANK: AtomicU32 = AtomicU32::new(COORDINATOR_RANK);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
static REGISTRY: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

/// Is tracing on? One relaxed atomic load — the whole disabled cost.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on or off process-wide. Enabling also pins the
/// monotonic/wall-clock epoch pair used for cross-process merging.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Set the ring capacity used by threads that have not recorded yet
/// (existing rings keep their size). Mostly for tests.
pub fn set_ring_capacity(events: usize) {
    RING_CAPACITY.store(events.max(1), Ordering::Relaxed);
}

/// Tag this process with the distributed run id and worker rank; both
/// are stamped into every drained record.
pub fn set_identity(run_id: u64, rank: u32) {
    RUN_ID.store(run_id, Ordering::Relaxed);
    RANK.store(rank, Ordering::Relaxed);
}

/// The current `(run_id, rank)` identity.
pub fn identity() -> (u64, u32) {
    (RUN_ID.load(Ordering::Relaxed), RANK.load(Ordering::Relaxed))
}

fn epoch() -> &'static (Instant, u64) {
    EPOCH.get_or_init(|| {
        let unix_us = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (Instant::now(), unix_us)
    })
}

/// Event phase, mirroring the Chrome `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span entry (`"B"`).
    Begin,
    /// Span exit (`"E"`).
    End,
    /// A point event (`"I"`).
    Instant,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "I",
        }
    }
}

/// One recorded event (name is static so recording never allocates).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Microseconds since the process trace epoch.
    pub t_us: u64,
    /// Recording thread (small per-process integer).
    pub tid: u32,
    /// Begin / end / instant.
    pub ph: Phase,
    /// Event name (span name for begin/end).
    pub name: &'static str,
    /// One free-form numeric payload (bytes, class id, …).
    pub arg: u64,
}

struct Ring {
    tid: u32,
    cap: usize,
    buf: VecDeque<Event>,
    dropped: u64,
}

thread_local! {
    static LOCAL: std::cell::RefCell<Option<Arc<Mutex<Ring>>>> =
        const { std::cell::RefCell::new(None) };
}

/// Push one event stamped with the clock reading `at`.
fn record(ph: Phase, name: &'static str, arg: u64, at: Instant) {
    let t_us = at.saturating_duration_since(epoch().0).as_micros() as u64;
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(Ring {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                cap: RING_CAPACITY.load(Ordering::Relaxed),
                buf: VecDeque::new(),
                dropped: 0,
            }));
            REGISTRY
                .lock()
                .expect("trace registry")
                .push(Arc::clone(&ring));
            ring
        });
        let mut ring = ring.lock().expect("trace ring");
        if ring.buf.len() >= ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        let tid = ring.tid;
        ring.buf.push_back(Event {
            t_us,
            tid,
            ph,
            name,
            arg,
        });
    });
}

/// RAII span guard: the clock reading taken when the span opened, and,
/// when tracing was on then, the promise of a matching `E` event.
#[must_use = "a span ends when the guard drops or finishes"]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    armed: bool,
}

impl SpanGuard {
    /// End the span now and return its length in seconds. The end event
    /// (when tracing was on at open) carries the same clock reading, so
    /// the returned seconds are the span's duration in the trace.
    pub fn finish(mut self) -> f64 {
        let end = Instant::now();
        if std::mem::take(&mut self.armed) {
            record(Phase::End, self.name, 0, end);
        }
        end.duration_since(self.start).as_secs_f64()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            record(Phase::End, self.name, 0, Instant::now());
        }
    }
}

/// Open a span. Cost with tracing off: one clock read, one atomic load
/// and a branch.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_arg(name, 0)
}

/// Open a span carrying a numeric payload on its begin event.
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> SpanGuard {
    let start = Instant::now();
    let armed = enabled();
    if armed {
        record(Phase::Begin, name, arg, start);
    }
    SpanGuard { name, start, armed }
}

/// Record a point event.
#[inline]
pub fn instant(name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    record(Phase::Instant, name, arg, Instant::now());
}

/// Everything drained from the rings (events sorted by time).
#[derive(Debug, Default)]
pub struct Drained {
    /// All events, ordered by `(t_us, tid)`.
    pub events: Vec<Event>,
    /// `(tid, count)` for every ring that overflowed since the last
    /// drain.
    pub dropped: Vec<(u32, u64)>,
}

/// Drain every thread's ring buffer (clearing them) into one
/// time-ordered batch. Rings of threads that already exited are
/// included.
pub fn drain() -> Drained {
    let mut out = Drained::default();
    let registry = REGISTRY.lock().expect("trace registry");
    for ring in registry.iter() {
        let mut ring = ring.lock().expect("trace ring");
        out.events.extend(ring.buf.drain(..));
        if ring.dropped > 0 {
            out.dropped.push((ring.tid, ring.dropped));
            ring.dropped = 0;
        }
    }
    drop(registry);
    out.events.sort_by_key(|e| (e.t_us, e.tid));
    out.dropped.sort_unstable();
    out
}

fn meta_line(run_id: u64, pid: u32, unix_us: u64) -> String {
    Obj::new()
        .str("type", "meta")
        .u64("schema_version", TRACE_SCHEMA_VERSION)
        .str("run_id", &format!("{run_id:#x}"))
        .u64("pid", pid as u64)
        .u64("unix_us", unix_us)
        .finish()
}

fn event_line(e: &Event, pid: u32) -> String {
    Obj::new()
        .str("type", "event")
        .str("ph", e.ph.as_str())
        .u64("t_us", e.t_us)
        .u64("pid", pid as u64)
        .u64("tid", e.tid as u64)
        .str("name", e.name)
        .u64("arg", e.arg)
        .finish()
}

fn dropped_line(pid: u32, tid: u32, dropped: u64) -> String {
    Obj::new()
        .str("type", "dropped")
        .u64("pid", pid as u64)
        .u64("tid", tid as u64)
        .u64("dropped_events", dropped)
        .finish()
}

/// Drain the rings and render the batch as JSONL (meta line first, then
/// time-ordered events, then one `dropped` marker per overflowed ring).
pub fn render_jsonl() -> String {
    let (run_id, pid) = identity();
    let unix_us = epoch().1;
    let drained = drain();
    let mut out = String::new();
    out.push_str(&meta_line(run_id, pid, unix_us));
    out.push('\n');
    for e in &drained.events {
        out.push_str(&event_line(e, pid));
        out.push('\n');
    }
    for &(tid, dropped) in &drained.dropped {
        out.push_str(&dropped_line(pid, tid, dropped));
        out.push('\n');
    }
    out
}

/// Drain and append to `path` (one `write` call, so concurrent readers
/// see whole batches), creating the file if needed.
///
/// # Errors
/// Propagates filesystem errors.
pub fn append_file(path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(render_jsonl().as_bytes())
}

// ---------------------------------------------------------------------
// Reading side: merge, validate, convert.
// ---------------------------------------------------------------------

struct ParsedLine {
    value: Value,
    line_no: usize,
}

fn parse_lines(text: &str) -> Result<Vec<ParsedLine>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse(line).map_err(|e| format!("line {}: not valid JSON: {e}", i + 1))?;
        out.push(ParsedLine {
            value,
            line_no: i + 1,
        });
    }
    Ok(out)
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_num).map(|n| n as u64)
}

/// Merge trace JSONL documents from several processes of one run into a
/// single monotonic timeline: each document's events are rebased from
/// its own monotonic epoch onto the earliest wall-clock anchor, then
/// globally sorted. Meta lines are kept (one per source), `dropped`
/// markers are carried through.
///
/// # Errors
/// Any malformed line, a document without a meta line, or mixed run ids.
pub fn merge_jsonl(docs: &[String]) -> Result<String, String> {
    struct Doc {
        lines: Vec<ParsedLine>,
        unix_us: u64,
    }
    let mut parsed = Vec::new();
    for (n, text) in docs.iter().enumerate() {
        let lines = parse_lines(text).map_err(|e| format!("input {}: {e}", n + 1))?;
        let meta = lines
            .iter()
            .find(|l| l.value.get("type").and_then(Value::as_str) == Some("meta"))
            .ok_or_else(|| format!("input {}: no meta line", n + 1))?;
        let unix_us = field_u64(&meta.value, "unix_us")
            .ok_or_else(|| format!("input {}: meta line lacks unix_us", n + 1))?;
        parsed.push(Doc { lines, unix_us });
    }
    let base_us = parsed.iter().map(|d| d.unix_us).min().unwrap_or(0);

    let mut metas: Vec<String> = Vec::new();
    let mut events: Vec<(u64, u64, u64, String)> = Vec::new(); // (t, pid, tid, line)
    let mut dropped: Vec<String> = Vec::new();
    let mut run_ids: Vec<String> = Vec::new();
    for doc in &parsed {
        let offset = doc.unix_us - base_us;
        for l in &doc.lines {
            match l.value.get("type").and_then(Value::as_str) {
                Some("meta") => {
                    if let Some(rid) = l.value.get("run_id").and_then(Value::as_str) {
                        run_ids.push(rid.to_string());
                    }
                    metas.push(render_value(&l.value));
                }
                Some("event") => {
                    let t = field_u64(&l.value, "t_us")
                        .ok_or_else(|| format!("line {}: event lacks t_us", l.line_no))?
                        + offset;
                    let pid = field_u64(&l.value, "pid").unwrap_or(0);
                    let tid = field_u64(&l.value, "tid").unwrap_or(0);
                    let mut v = l.value.clone();
                    set_num(&mut v, "t_us", t);
                    events.push((t, pid, tid, render_value(&v)));
                }
                Some("dropped") => dropped.push(render_value(&l.value)),
                other => return Err(format!("line {}: unknown record type {other:?}", l.line_no)),
            }
        }
    }
    if let Some(first) = run_ids.first() {
        if let Some(bad) = run_ids.iter().find(|r| *r != first) {
            return Err(format!("mixed run ids: {first} vs {bad}"));
        }
    }
    events.sort_by_key(|e| (e.0, e.1, e.2));

    let mut out = String::new();
    for m in metas {
        out.push_str(&m);
        out.push('\n');
    }
    for (_, _, _, line) in events {
        out.push_str(&line);
        out.push('\n');
    }
    for d in dropped {
        out.push_str(&d);
        out.push('\n');
    }
    Ok(out)
}

fn set_num(v: &mut Value, key: &str, n: u64) {
    if let Value::Obj(fields) = v {
        for (k, val) in fields.iter_mut() {
            if k == key {
                *val = Value::Num(n as f64);
            }
        }
    }
}

/// Re-render a parsed record with the writer (stable key order is the
/// parser's document order, which the writer produced in the first
/// place).
fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{}", *n as i64)
            } else {
                mining_types::json::number(*n)
            }
        }
        Value::Str(s) => format!("\"{}\"", mining_types::json::escape(s)),
        Value::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_value).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", mining_types::json::escape(k), render_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// What [`validate_jsonl`] learned about a trace document.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Meta lines (one per merged source process).
    pub processes: usize,
    /// Event records.
    pub events: usize,
    /// Matched begin/end pairs.
    pub spans: usize,
    /// Instant records.
    pub instants: usize,
    /// Total events dropped to ring overflow.
    pub dropped: u64,
    /// The (single) run id.
    pub run_id: String,
    /// Distinct logical process ids, sorted.
    pub pids: Vec<u64>,
    /// Distinct event names, sorted.
    pub names: Vec<String>,
}

const META_KEYS: &[&str] = &["pid", "run_id", "schema_version", "type", "unix_us"];
const EVENT_KEYS: &[&str] = &["arg", "name", "ph", "pid", "t_us", "tid", "type"];
const DROPPED_KEYS: &[&str] = &["dropped_events", "pid", "tid", "type"];

fn check_keys(v: &Value, want: &[&str], line_no: usize) -> Result<(), String> {
    if let Value::Obj(fields) = v {
        let mut got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        got.sort_unstable();
        if got != want {
            return Err(format!(
                "line {line_no}: keys {got:?} do not match schema {want:?}"
            ));
        }
        Ok(())
    } else {
        Err(format!("line {line_no}: record is not an object"))
    }
}

/// Validate a trace JSONL document (single-process or merged): every
/// line parses, record keys match the schema exactly, timestamps are
/// monotone non-decreasing, spans nest properly per `(pid, tid)` (every
/// end matches its begin, nothing left open), and all meta lines agree
/// on one run id. Nesting violations are tolerated — reported in the
/// summary but not fatal — when the document records dropped events,
/// since overflow legitimately loses begin markers.
///
/// # Errors
/// A message naming the first offending line.
pub fn validate_jsonl(text: &str) -> Result<TraceSummary, String> {
    let lines = parse_lines(text)?;
    if lines.is_empty() {
        return Err("empty trace".to_string());
    }
    let mut summary = TraceSummary::default();
    let mut run_ids: Vec<String> = Vec::new();
    let mut pids = std::collections::BTreeSet::new();
    let mut names = std::collections::BTreeSet::new();
    let mut last_t = 0u64;
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();
    let mut nesting_errors: Vec<String> = Vec::new();

    for l in &lines {
        match l.value.get("type").and_then(Value::as_str) {
            Some("meta") => {
                check_keys(&l.value, META_KEYS, l.line_no)?;
                let version = field_u64(&l.value, "schema_version").unwrap_or(0);
                if version != TRACE_SCHEMA_VERSION {
                    return Err(format!(
                        "line {}: schema_version {version} (expected {TRACE_SCHEMA_VERSION})",
                        l.line_no
                    ));
                }
                let rid = l
                    .value
                    .get("run_id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: run_id must be a string", l.line_no))?;
                run_ids.push(rid.to_string());
                summary.processes += 1;
            }
            Some("event") => {
                check_keys(&l.value, EVENT_KEYS, l.line_no)?;
                let t = field_u64(&l.value, "t_us").unwrap_or(0);
                if t < last_t {
                    return Err(format!(
                        "line {}: t_us {t} goes backwards (previous {last_t})",
                        l.line_no
                    ));
                }
                last_t = t;
                let pid = field_u64(&l.value, "pid").unwrap_or(0);
                let tid = field_u64(&l.value, "tid").unwrap_or(0);
                let name = l
                    .value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                pids.insert(pid);
                names.insert(name.clone());
                summary.events += 1;
                match l.value.get("ph").and_then(Value::as_str) {
                    Some("B") => stacks.entry((pid, tid)).or_default().push(name),
                    Some("E") => {
                        let stack = stacks.entry((pid, tid)).or_default();
                        match stack.pop() {
                            Some(open) if open == name => summary.spans += 1,
                            Some(open) => nesting_errors.push(format!(
                                "line {}: end of '{name}' while '{open}' is open",
                                l.line_no
                            )),
                            None => nesting_errors.push(format!(
                                "line {}: end of '{name}' with no open span",
                                l.line_no
                            )),
                        }
                    }
                    Some("I") => summary.instants += 1,
                    other => {
                        return Err(format!("line {}: bad ph {other:?}", l.line_no));
                    }
                }
            }
            Some("dropped") => {
                check_keys(&l.value, DROPPED_KEYS, l.line_no)?;
                summary.dropped += field_u64(&l.value, "dropped_events").unwrap_or(0);
            }
            other => return Err(format!("line {}: unknown record type {other:?}", l.line_no)),
        }
    }

    match run_ids.first() {
        None => return Err("no meta line".to_string()),
        Some(first) => {
            if let Some(bad) = run_ids.iter().find(|r| *r != first) {
                return Err(format!("mixed run ids: {first} vs {bad}"));
            }
            summary.run_id = first.clone();
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            nesting_errors.push(format!("span '{open}' on pid {pid} tid {tid} never ended"));
        }
    }
    if !nesting_errors.is_empty() && summary.dropped == 0 {
        return Err(nesting_errors.remove(0));
    }
    summary.pids = pids.into_iter().collect();
    summary.names = names.into_iter().collect();
    Ok(summary)
}

/// Convert a (single or merged) trace JSONL document into Chrome
/// `trace_event` JSON — load the result in `chrome://tracing` or
/// Perfetto. Each logical pid gets a `process_name` metadata record
/// (`coordinator` / `worker-N`).
///
/// # Errors
/// Any malformed line.
pub fn chrome_trace(text: &str) -> Result<String, String> {
    let lines = parse_lines(text)?;
    let mut events = mining_types::json::Arr::new();
    let mut named: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for l in &lines {
        match l.value.get("type").and_then(Value::as_str) {
            Some("meta") => {
                let pid = field_u64(&l.value, "pid").unwrap_or(0);
                if named.insert(pid) {
                    let label = if pid == COORDINATOR_RANK as u64 {
                        "coordinator".to_string()
                    } else {
                        format!("worker-{pid}")
                    };
                    events.raw(
                        &Obj::new()
                            .str("name", "process_name")
                            .str("ph", "M")
                            .u64("pid", pid)
                            .u64("tid", 0)
                            .raw("args", &Obj::new().str("name", &label).finish())
                            .finish(),
                    );
                }
            }
            Some("event") => {
                let ph = l.value.get("ph").and_then(Value::as_str).unwrap_or("I");
                let mut obj = Obj::new()
                    .str(
                        "name",
                        l.value.get("name").and_then(Value::as_str).unwrap_or(""),
                    )
                    .str("cat", "eclat")
                    .str("ph", if ph == "I" { "i" } else { ph })
                    .u64("ts", field_u64(&l.value, "t_us").unwrap_or(0))
                    .u64("pid", field_u64(&l.value, "pid").unwrap_or(0))
                    .u64("tid", field_u64(&l.value, "tid").unwrap_or(0));
                if ph == "I" {
                    obj = obj.str("s", "t");
                }
                events.raw(
                    &obj.raw(
                        "args",
                        &Obj::new()
                            .u64("arg", field_u64(&l.value, "arg").unwrap_or(0))
                            .finish(),
                    )
                    .finish(),
                );
            }
            Some("dropped") => {
                events.raw(
                    &Obj::new()
                        .str("name", "dropped_events")
                        .str("cat", "eclat")
                        .str("ph", "i")
                        .u64("ts", 0)
                        .u64("pid", field_u64(&l.value, "pid").unwrap_or(0))
                        .u64("tid", field_u64(&l.value, "tid").unwrap_or(0))
                        .str("s", "t")
                        .raw(
                            "args",
                            &Obj::new()
                                .u64("arg", field_u64(&l.value, "dropped_events").unwrap_or(0))
                                .finish(),
                        )
                        .finish(),
                );
            }
            _ => return Err(format!("line {}: unknown record type", l.line_no)),
        }
    }
    Ok(Obj::new()
        .raw("traceEvents", &events.finish())
        .str("displayTimeUnit", "ms")
        .finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global state; serialize the tests that
    // touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn reset() {
        set_enabled(false);
        let _ = drain();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        set_identity(0, COORDINATOR_RANK);
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = locked();
        reset();
        {
            let _s = span("quiet");
            instant("quiet-point", 1);
        }
        assert!(
            span("timed").finish() >= 0.0,
            "finish times without tracing"
        );
        assert!(drain().events.is_empty());
    }

    #[test]
    fn spans_nest_and_roundtrip_through_jsonl() {
        let _guard = locked();
        reset();
        set_identity(0x2a, 3);
        set_enabled(true);
        {
            let _outer = span("outer");
            {
                let _inner = span_arg("inner", 7);
            }
            instant("mark", 42);
        }
        set_enabled(false);
        let doc = render_jsonl();
        let summary = validate_jsonl(&doc).expect("valid trace");
        assert_eq!(summary.processes, 1);
        assert_eq!(summary.events, 5);
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.dropped, 0);
        assert_eq!(summary.run_id, "0x2a");
        assert_eq!(summary.pids, vec![3]);
        assert_eq!(
            summary.names,
            vec!["inner".to_string(), "mark".to_string(), "outer".to_string()]
        );
        reset();
    }

    #[test]
    fn overflow_drops_oldest_with_marker() {
        let _guard = locked();
        reset();
        set_ring_capacity(4);
        set_enabled(true);
        // A fresh thread gets a fresh ring at the small capacity.
        std::thread::spawn(|| {
            for i in 0..10u64 {
                instant("tick", i);
            }
        })
        .join()
        .unwrap();
        set_enabled(false);
        let doc = render_jsonl();
        let summary = validate_jsonl(&doc).expect("overflowed trace still validates");
        assert_eq!(summary.events, 4, "ring keeps the newest events");
        assert_eq!(summary.dropped, 6, "oldest six were dropped and counted");
        assert!(doc.contains("\"dropped_events\":6"), "{doc}");
        // The survivors are the newest (largest args).
        assert!(doc.contains("\"arg\":9"), "{doc}");
        assert!(!doc.contains("\"arg\":0}"), "{doc}");
        reset();
    }

    #[test]
    fn unbalanced_spans_fail_validation_unless_overflowed() {
        let bad = concat!(
            "{\"type\":\"meta\",\"schema_version\":1,\"run_id\":\"0x1\",\"pid\":0,\"unix_us\":5}\n",
            "{\"type\":\"event\",\"ph\":\"B\",\"t_us\":1,\"pid\":0,\"tid\":0,\"name\":\"a\",\"arg\":0}\n",
        );
        let err = validate_jsonl(bad).unwrap_err();
        assert!(err.contains("never ended"), "{err}");

        let mismatched = concat!(
            "{\"type\":\"meta\",\"schema_version\":1,\"run_id\":\"0x1\",\"pid\":0,\"unix_us\":5}\n",
            "{\"type\":\"event\",\"ph\":\"E\",\"t_us\":1,\"pid\":0,\"tid\":0,\"name\":\"a\",\"arg\":0}\n",
        );
        let err = validate_jsonl(mismatched).unwrap_err();
        assert!(err.contains("no open span"), "{err}");
    }

    #[test]
    fn validation_rejects_drift_and_disorder() {
        let missing_key = concat!(
            "{\"type\":\"meta\",\"schema_version\":1,\"run_id\":\"0x1\",\"pid\":0,\"unix_us\":5}\n",
            "{\"type\":\"event\",\"ph\":\"I\",\"t_us\":1,\"pid\":0,\"name\":\"a\",\"arg\":0}\n",
        );
        assert!(validate_jsonl(missing_key).unwrap_err().contains("schema"));

        let backwards = concat!(
            "{\"type\":\"meta\",\"schema_version\":1,\"run_id\":\"0x1\",\"pid\":0,\"unix_us\":5}\n",
            "{\"type\":\"event\",\"ph\":\"I\",\"t_us\":9,\"pid\":0,\"tid\":0,\"name\":\"a\",\"arg\":0}\n",
            "{\"type\":\"event\",\"ph\":\"I\",\"t_us\":3,\"pid\":0,\"tid\":0,\"name\":\"a\",\"arg\":0}\n",
        );
        assert!(validate_jsonl(backwards).unwrap_err().contains("backwards"));

        assert!(validate_jsonl("").is_err());
    }

    #[test]
    fn merge_rebases_onto_one_monotonic_timeline() {
        let a = concat!(
            "{\"type\":\"meta\",\"schema_version\":1,\"run_id\":\"0x7\",\"pid\":0,\"unix_us\":1000}\n",
            "{\"type\":\"event\",\"ph\":\"B\",\"t_us\":0,\"pid\":0,\"tid\":0,\"name\":\"init\",\"arg\":0}\n",
            "{\"type\":\"event\",\"ph\":\"E\",\"t_us\":50,\"pid\":0,\"tid\":0,\"name\":\"init\",\"arg\":0}\n",
        )
        .to_string();
        let b = concat!(
            "{\"type\":\"meta\",\"schema_version\":1,\"run_id\":\"0x7\",\"pid\":1,\"unix_us\":1020}\n",
            "{\"type\":\"event\",\"ph\":\"B\",\"t_us\":0,\"pid\":1,\"tid\":0,\"name\":\"init\",\"arg\":0}\n",
            "{\"type\":\"event\",\"ph\":\"E\",\"t_us\":10,\"pid\":1,\"tid\":0,\"name\":\"init\",\"arg\":0}\n",
        )
        .to_string();
        let merged = merge_jsonl(&[a, b]).expect("merge");
        let summary = validate_jsonl(&merged).expect("merged trace validates");
        assert_eq!(summary.processes, 2);
        assert_eq!(summary.pids, vec![0, 1]);
        assert_eq!(summary.spans, 2);
        // Process b's events were rebased by +20us.
        assert!(merged.contains("\"t_us\":20"), "{merged}");
        assert!(merged.contains("\"t_us\":30"), "{merged}");
    }

    #[test]
    fn merge_rejects_mixed_run_ids() {
        let a =
            "{\"type\":\"meta\",\"schema_version\":1,\"run_id\":\"0x7\",\"pid\":0,\"unix_us\":0}\n"
                .to_string();
        let b =
            "{\"type\":\"meta\",\"schema_version\":1,\"run_id\":\"0x8\",\"pid\":1,\"unix_us\":0}\n"
                .to_string();
        assert!(merge_jsonl(&[a, b]).unwrap_err().contains("mixed run ids"));
    }

    #[test]
    fn chrome_conversion_labels_processes() {
        let doc = concat!(
            "{\"type\":\"meta\",\"schema_version\":1,\"run_id\":\"0x7\",\"pid\":4294967295,\"unix_us\":0}\n",
            "{\"type\":\"event\",\"ph\":\"B\",\"t_us\":1,\"pid\":4294967295,\"tid\":0,\"name\":\"init\",\"arg\":0}\n",
            "{\"type\":\"event\",\"ph\":\"E\",\"t_us\":2,\"pid\":4294967295,\"tid\":0,\"name\":\"init\",\"arg\":0}\n",
            "{\"type\":\"event\",\"ph\":\"I\",\"t_us\":3,\"pid\":4294967295,\"tid\":0,\"name\":\"m\",\"arg\":5}\n",
            "{\"type\":\"dropped\",\"pid\":4294967295,\"tid\":0,\"dropped_events\":2}\n",
        );
        let chrome = chrome_trace(doc).expect("convert");
        let v = parse(&chrome).expect("chrome output is JSON");
        match v.get("traceEvents") {
            Some(Value::Arr(items)) => assert_eq!(items.len(), 5),
            other => panic!("{other:?}"),
        }
        assert!(chrome.contains("\"name\":\"coordinator\""), "{chrome}");
        assert!(chrome.contains("\"ph\":\"i\""), "{chrome}");
    }

    #[test]
    fn disabled_fast_path_is_cheap() {
        let _guard = locked();
        reset();
        // 1M disabled instrumentation points must run in well under a
        // second even unoptimized — a disabled span is one clock read,
        // one relaxed load and a branch, a disabled instant the last two.
        // Generous bound to stay CI-noise-proof.
        let t0 = Instant::now();
        for i in 0..1_000_000u64 {
            let _s = span("off");
            instant("off-point", i);
        }
        let took = t0.elapsed();
        assert!(drain().events.is_empty());
        assert!(
            took < std::time::Duration::from_secs(2),
            "disabled tracing cost {took:?} for 2M probe points"
        );
    }
}
