//! Pieces every workload shares: seeded inputs, the span recorder and
//! its timing transport, delivery attribution, statistics, the host
//! drift kernel and the result line.

use gasf_core::candidate::FilterId;
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_core::engine::Emission;
use gasf_core::quality::FilterSpec;
use gasf_core::schema::Schema;
use gasf_core::time::Micros;
use gasf_core::tuple::TupleBuilder;
use gasf_net::{Delivery, GroupId, LinkLoad, NetError, NodeId, Transport};
use gasf_sources::{NamosBuoy, Trace};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The NAMOS thermistor channels the paper's delta filters watch.
pub const ATTRS: [&str; 4] = ["tmpr1", "tmpr2", "tmpr3", "tmpr4"];

/// SplitMix64, the benchmark's own generator for what the library
/// generators leave fixed (sampling-instant jitter, the drift kernel).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seeded NAMOS buoy trace whose sampling instants are jittered: each
/// interval is uniform in [5, 15] ms (mean 10 ms, the generator's
/// period), so stream-time delays are not all multiples of one period.
pub fn namos_trace(seed: u64, tuples: usize) -> Trace {
    let base = NamosBuoy::new().tuples(tuples).seed(seed).generate();
    let schema = base.schema().clone();
    let mut rng = SplitMix::new(seed ^ 0x6a69_7474_6572);
    let mut b = TupleBuilder::new(&schema);
    let mut ts = 0u64;
    let restamped = base
        .tuples()
        .iter()
        .map(|t| {
            ts += 5_000 + rng.below(10_001);
            b.at(Micros(ts))
                .set_all(t.values())
                .build()
                .expect("values come from a schema-aligned tuple")
        })
        .collect();
    Trace::new(schema, restamped).expect("strictly increasing timestamps")
}

/// Mean |Δ| of each thermistor channel in `ATTRS` order.
pub fn mean_deltas(trace: &Trace) -> [f64; 4] {
    ATTRS.map(|a| {
        trace
            .stats(a)
            .expect("NAMOS has thermistors")
            .mean_abs_delta
    })
}

/// The paper-style DC1 spread: subscription `i` of `n` watches
/// `ATTRS[i % 4]` with delta from 3 to 19 × that channel's mean |Δ|
/// (linear over the `n / 4` subscriptions of the channel) and slack
/// 0.6 × the mean |Δ|.
pub fn spread_spec(i: usize, n: usize, means: &[f64; 4]) -> FilterSpec {
    let per_attr = (n / 4).max(1);
    let step = if per_attr > 1 {
        (i / 4) as f64 / (per_attr - 1) as f64
    } else {
        0.0
    };
    let m = means[i % 4];
    FilterSpec::delta(ATTRS[i % 4], m * (3.0 + 16.0 * step), 0.6 * m)
}

/// A connector holding at most one chunk: lets the benchmark hand the
/// middleware one chunk per `Middleware::ingest` call (the closed loop),
/// or none at all (an ingest that only finishes the stream).
pub struct OneChunk {
    schema: Schema,
    chunk: Option<Chunk>,
}

impl OneChunk {
    pub fn new(schema: &Schema, chunk: Option<Chunk>) -> Self {
        OneChunk {
            schema: schema.clone(),
            chunk,
        }
    }
}

impl SourceConnector for OneChunk {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self, _max_rows: usize) -> Result<Option<Chunk>, gasf_core::Error> {
        Ok(self.chunk.take())
    }
}

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub thread: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// In-memory span recorder for one thread. Nested calls get the
/// innermost open span as parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u8,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u8) -> Self {
        Tracer {
            origin,
            thread,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied().unwrap_or(NO_PARENT);
            spans.push(Span {
                name,
                parent,
                thread: self.thread,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            (spans.len() - 1) as u32
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id as usize].end_ns = end;
        out
    }

    /// Summed duration of every span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Summed self time of every span called `name` (its duration minus
    /// its children's), in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut total: i64 = 0;
        for (i, s) in spans.iter().enumerate() {
            if s.name == name {
                total += (s.end_ns - s.start_ns) as i64;
            }
            if s.parent != NO_PARENT && spans[s.parent as usize].name == name {
                debug_assert!(s.parent < i as u32);
                total -= (s.end_ns - s.start_ns) as i64;
            }
        }
        total as f64 / 1e6
    }

    /// Summed duration of the root spans not named `setup.*`: the
    /// stream phase's attributed time, in ms.
    pub fn stream_roots_ms(&self) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent == NO_PARENT && !s.name.starts_with("setup."))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .count() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    /// Appends another thread's spans (their parents stay within it).
    pub fn absorb(&self, other: Vec<Span>) {
        let mut spans = self.spans.borrow_mut();
        let base = spans.len() as u32;
        spans.extend(other.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn timed<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// A `Transport` wrapper that records a span around every send and
/// flush when tracing, and only forwards otherwise.
#[derive(Debug)]
pub struct TimedTransport<'t, T> {
    pub inner: T,
    tracer: Option<&'t Tracer>,
}

impl<'t, T> TimedTransport<'t, T> {
    pub fn new(inner: T, tracer: Option<&'t Tracer>) -> Self {
        TimedTransport { inner, tracer }
    }
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn send_emission(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        let inner = &mut self.inner;
        timed(self.tracer, "transport.send", || {
            inner.send_emission(group, src, emission, node_of)
        })
    }

    fn flush(&mut self) -> Result<(), NetError> {
        let inner = &mut self.inner;
        timed(self.tracer, "transport.flush", || inner.flush())
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn messages(&self) -> u64 {
        self.inner.messages()
    }

    fn link_loads(&self) -> Vec<LinkLoad> {
        self.inner.link_loads()
    }
}

/// One chunk's ingest as the source saw it.
#[derive(Debug, Clone, Copy)]
pub struct ChunkRec {
    /// Seconds since the run's origin when the chunk was handed over.
    pub start: f64,
    /// Seconds since the run's origin when control came back.
    pub end: f64,
    /// Newest event timestamp admitted once this call returned.
    pub newest_ts: u64,
    /// Emissions disseminated so far, after this call
    /// (`FlowMonitor::emitted`).
    pub emitted: u64,
}

/// In-memory delivery latency, one sample per emission, in ms.
///
/// The emitted counter read after every ingest call tells which call
/// disseminated emission `i`. Its tuple's admitting call is located
/// from the emission's stream delay `delays_us[i]`, counted back from
/// the newest timestamp admitted by the disseminating call: the first
/// call whose newest timestamp reaches `newest − delay`. The sample is
/// the disseminating call's end minus the admitting call's start.
pub fn memory_delivery_ms(chunks: &[ChunkRec], delays_us: &[u64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(delays_us.len());
    let mut d = 0usize;
    for (i, &delay) in delays_us.iter().enumerate() {
        while d < chunks.len() && chunks[d].emitted <= i as u64 {
            d += 1;
        }
        let Some(rec) = chunks.get(d) else { break };
        let ts = rec.newest_ts.saturating_sub(delay);
        let a = chunks[..=d].partition_point(|c| c.newest_ts < ts);
        out.push((rec.end - chunks[a].start) * 1e3);
    }
    out
}

/// Per-chunk step times: from each chunk's hand-over to the next one's,
/// the last ending at `end` (all in seconds since the run's origin).
pub fn steps(starts: &[f64], end: f64) -> Vec<f64> {
    starts
        .iter()
        .zip(starts.iter().skip(1).chain(std::iter::once(&end)))
        .map(|(a, b)| b - a)
        .collect()
}

/// Linear-interpolated quantile of sorted samples (`q` in [0, 1]).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Check bookkeeping: every check and every ingest call is an attempted
/// operation; a failed check is a failed one.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(what());
            }
        }
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.check(ok, || format!("{what}: got {got:?}, want {want:?}"));
    }
}

/// Fixed-work, memory-bound probe of the host: a dependent walk of 2²⁰
/// steps over one 2²⁰-slot (8 MiB) cyclic permutation. Returns ms.
pub fn drift_kernel_ms() -> f64 {
    const SLOTS: usize = 1 << 20;
    let mut next: Vec<u64> = (0..SLOTS as u64).collect();
    let mut rng = SplitMix::new(0x0064_7269_6674);
    // Sattolo's shuffle: one cycle through every slot.
    for i in (1..SLOTS).rev() {
        let j = rng.below(i as u64) as usize;
        next.swap(i, j);
    }
    let start = Instant::now();
    let mut p = 0u64;
    for _ in 0..SLOTS {
        p = next[p as usize];
    }
    std::hint::black_box(p);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`ru_maxrss`, the kernel's
/// `VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 × i64), then 14
    // longs starting with `ru_maxrss` in KiB.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of 144 bytes, the size of
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is valid.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage[4] as f64 / 1024.0
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value, printed in the summary.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Self {
        self.samples = Some(n);
        self
    }
}
