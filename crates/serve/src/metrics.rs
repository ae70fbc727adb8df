//! Lock-free observability for the serving runtime.
//!
//! Every instrument is a plain atomic: counters and gauges are single
//! `AtomicU64`/`AtomicI64` cells, histograms are fixed arrays of atomic
//! buckets. Recording never takes a lock and never allocates, so the hot
//! path of a worker thread pays a handful of relaxed atomic adds per
//! request. [`Metrics::snapshot`] reads everything into an immutable
//! [`MetricsSnapshot`] whose `Display` impl is the text exporter.

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, busy workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets an absolute level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: powers of two from 1 µs up to
/// ~2³⁸ µs (≈ 76 h), which comfortably brackets any request latency the
/// runtime can produce.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket latency histogram with power-of-two bucket edges.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` microseconds (bucket 0
/// counts 0 µs samples); quantiles report the upper edge of the bucket
/// containing the requested rank, so they are conservative by at most 2×.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Index of the bucket holding a `us`-microsecond sample.
    fn bucket_of(us: u64) -> usize {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Upper edge, in µs, of bucket `i`.
    fn upper_edge(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound, in µs, on the `q`-quantile (`0.0 ..= 1.0`) of the
    /// recorded samples; `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        quantile_from_buckets(&self.bucket_counts(), q)
    }

    /// Mean sample, in µs; `None` when empty.
    pub fn mean_us(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum_us.load(Ordering::Relaxed) as f64 / n as f64)
    }

    /// A point-in-time copy of the raw bucket counts. Index `i` counts
    /// samples whose bucket upper edge is `2^i` µs (index 0 counts 0 µs),
    /// so two dumps from different registries merge by elementwise sum.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum of every recorded sample, in µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// Upper bound, in µs, on the `q`-quantile of a bucket-count dump (as
/// produced by [`Histogram::bucket_counts`], possibly summed across
/// several histograms); `None` when the buckets are empty.
pub fn quantile_from_buckets(counts: &[u64], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(Histogram::upper_edge(i));
        }
    }
    Some(Histogram::upper_edge(counts.len().saturating_sub(1)))
}

/// Mean, in µs, implied by a bucket dump and its sample sum.
fn mean_from_buckets(counts: &[u64], sum_us: u64) -> Option<f64> {
    let n: u64 = counts.iter().sum();
    (n > 0).then(|| sum_us as f64 / n as f64)
}

/// Per-tenant counters. The registry keeps [`TENANT_SLOTS`] of these;
/// tenant ids are folded into the slots modulo [`TENANT_SLOTS`], so small
/// deployments (ids `0..8`) get exact per-tenant figures and larger id
/// spaces degrade to striped aggregates rather than unbounded memory.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Requests admitted into the queue.
    pub accepted: Counter,
    /// Requests rejected at admission (overload or quota).
    pub rejected: Counter,
    /// Requests that finished with a successful outcome.
    pub completed: Counter,
}

/// Number of per-tenant metric stripes.
pub const TENANT_SLOTS: usize = 8;

/// The serving runtime's metrics registry. All instruments are lock-free;
/// share it as an `Arc<Metrics>` between the pool and observers.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests admitted into the queue.
    pub accepted: Counter,
    /// Requests rejected with `Overloaded` at admission.
    pub rejected: Counter,
    /// Requests answered with a successful outcome.
    pub completed: Counter,
    /// Requests answered with a structured error after retries.
    pub failed: Counter,
    /// Execution attempts beyond the first (retry/backoff loop).
    pub retries: Counter,
    /// Batches dispatched to workers.
    pub batches: Counter,
    /// Requests that shared a batch with at least one other request.
    pub coalesced: Counter,
    /// Pixel-kernel lookups answered by the pool's compiled-kernel cache.
    pub kernel_cache_hits: Counter,
    /// Pixel-kernel lookups that compiled and inserted a new program.
    pub kernel_cache_misses: Counter,
    /// Jobs currently waiting in the intake queue.
    pub queue_depth: Gauge,
    /// Workers currently executing a batch.
    pub workers_busy: Gauge,
    /// Client connections currently open on the node's transport.
    pub connections_open: Gauge,
    /// Pipelined requests accepted but not yet answered on the wire.
    pub inflight_requests: Gauge,
    /// End-to-end request latency (submission → response).
    pub latency: Histogram,
    /// Per-batch service time on a worker.
    pub batch_service: Histogram,
    /// Striped per-tenant counters (see [`TenantCounters`]).
    pub per_tenant: [TenantCounters; TENANT_SLOTS],
}

impl Metrics {
    /// The per-tenant stripe for a tenant id.
    pub fn tenant(&self, id: u16) -> &TenantCounters {
        &self.per_tenant[usize::from(id) % TENANT_SLOTS]
    }

    /// Reads every instrument into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            accepted: self.accepted.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            retries: self.retries.get(),
            batches: self.batches.get(),
            coalesced: self.coalesced.get(),
            kernel_cache_hits: self.kernel_cache_hits.get(),
            kernel_cache_misses: self.kernel_cache_misses.get(),
            queue_depth: self.queue_depth.get(),
            workers_busy: self.workers_busy.get(),
            connections_open: self.connections_open.get(),
            inflight_requests: self.inflight_requests.get(),
            latency_p50_us: self.latency.quantile_us(0.50),
            latency_p95_us: self.latency.quantile_us(0.95),
            latency_p99_us: self.latency.quantile_us(0.99),
            latency_mean_us: self.latency.mean_us(),
            batch_service_p50_us: self.batch_service.quantile_us(0.50),
            latency_buckets: self.latency.bucket_counts(),
            latency_sum_us: self.latency.sum_us(),
            batch_service_buckets: self.batch_service.bucket_counts(),
            batch_service_sum_us: self.batch_service.sum_us(),
            tenants: self
                .per_tenant
                .iter()
                .map(|t| (t.accepted.get(), t.rejected.get(), t.completed.get()))
                .collect(),
        }
    }
}

/// A point-in-time copy of every instrument in [`Metrics`]; its `Display`
/// impl is the text exporter (one `apim_serve_*` line per figure).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted.
    pub accepted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Successful responses.
    pub completed: u64,
    /// Failed responses.
    pub failed: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests that shared a batch.
    pub coalesced: u64,
    /// Pixel-kernel cache hits.
    pub kernel_cache_hits: u64,
    /// Pixel-kernel cache misses (compiles).
    pub kernel_cache_misses: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: i64,
    /// Busy workers at snapshot time.
    pub workers_busy: i64,
    /// Open transport connections at snapshot time.
    pub connections_open: i64,
    /// Pipelined in-flight requests at snapshot time.
    pub inflight_requests: i64,
    /// p50 end-to-end latency, µs.
    pub latency_p50_us: Option<u64>,
    /// p95 end-to-end latency, µs.
    pub latency_p95_us: Option<u64>,
    /// p99 end-to-end latency, µs.
    pub latency_p99_us: Option<u64>,
    /// Mean end-to-end latency, µs.
    pub latency_mean_us: Option<f64>,
    /// p50 batch service time, µs.
    pub batch_service_p50_us: Option<u64>,
    /// Raw end-to-end latency bucket counts (power-of-two edges); what
    /// [`MetricsSnapshot::merge`] sums so merged quantiles stay exact.
    pub latency_buckets: Vec<u64>,
    /// Sum of every latency sample, µs.
    pub latency_sum_us: u64,
    /// Raw batch service time bucket counts.
    pub batch_service_buckets: Vec<u64>,
    /// Sum of every batch service sample, µs.
    pub batch_service_sum_us: u64,
    /// `(accepted, rejected, completed)` per tenant stripe.
    pub tenants: Vec<(u64, u64, u64)>,
}

/// Version byte leading every [`MetricsSnapshot::encode`] payload.
/// Version 2 appended the connection/in-flight gauges; version 3 the
/// kernel-cache hit and miss counters.
pub const SNAPSHOT_CODEC_VERSION: u8 = 3;

/// Cap on decoded vector lengths: generous against any real snapshot, but
/// small enough that a hostile length prefix cannot force an allocation.
const MAX_DECODED_LEN: u64 = 4096;

/// Why a [`MetricsSnapshot::decode`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the encoding was complete.
    Truncated,
    /// The leading version byte is not one this build understands.
    UnsupportedVersion(u8),
    /// A length prefix or varint exceeds the decoder's hard bounds.
    LengthOverflow,
    /// Bytes remained after a complete snapshot was decoded.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "snapshot payload truncated"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot codec version {v}")
            }
            CodecError::LengthOverflow => write!(f, "snapshot length field out of bounds"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint, advancing `pos`.
fn take_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::LengthOverflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::LengthOverflow);
        }
    }
}

/// Zigzag fold of an `i64` into the varint-friendly unsigned space.
fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Elementwise `a[i] += b[i]`, growing `a` to cover `b`.
fn add_buckets(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (acc, &v) in a.iter_mut().zip(b) {
        *acc = acc.saturating_add(v);
    }
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one: counters, gauges, histogram
    /// buckets and per-tenant stripes sum; latency quantiles and means are
    /// recomputed from the merged buckets, so a fleet-wide p99 is exactly
    /// the p99 of the union of both nodes' samples (at bucket resolution).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.failed += other.failed;
        self.retries += other.retries;
        self.batches += other.batches;
        self.coalesced += other.coalesced;
        self.kernel_cache_hits += other.kernel_cache_hits;
        self.kernel_cache_misses += other.kernel_cache_misses;
        self.queue_depth += other.queue_depth;
        self.workers_busy += other.workers_busy;
        self.connections_open += other.connections_open;
        self.inflight_requests += other.inflight_requests;
        add_buckets(&mut self.latency_buckets, &other.latency_buckets);
        self.latency_sum_us = self.latency_sum_us.saturating_add(other.latency_sum_us);
        add_buckets(
            &mut self.batch_service_buckets,
            &other.batch_service_buckets,
        );
        self.batch_service_sum_us = self
            .batch_service_sum_us
            .saturating_add(other.batch_service_sum_us);
        if self.tenants.len() < other.tenants.len() {
            self.tenants.resize(other.tenants.len(), (0, 0, 0));
        }
        for (mine, theirs) in self.tenants.iter_mut().zip(&other.tenants) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
            mine.2 += theirs.2;
        }
        self.recompute_derived();
    }

    /// Re-derives the quantile and mean fields from the raw buckets.
    fn recompute_derived(&mut self) {
        self.latency_p50_us = quantile_from_buckets(&self.latency_buckets, 0.50);
        self.latency_p95_us = quantile_from_buckets(&self.latency_buckets, 0.95);
        self.latency_p99_us = quantile_from_buckets(&self.latency_buckets, 0.99);
        self.latency_mean_us = mean_from_buckets(&self.latency_buckets, self.latency_sum_us);
        self.batch_service_p50_us = quantile_from_buckets(&self.batch_service_buckets, 0.50);
    }

    /// Compact binary encoding: a version byte, then every raw figure as
    /// an LEB128 varint (gauges zigzag-folded). Derived fields (quantiles,
    /// means) are *not* encoded — [`MetricsSnapshot::decode`] recomputes
    /// them from the buckets, so a round trip is exact.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(SNAPSHOT_CODEC_VERSION);
        for v in [
            self.accepted,
            self.rejected,
            self.completed,
            self.failed,
            self.retries,
            self.batches,
            self.coalesced,
            self.kernel_cache_hits,
            self.kernel_cache_misses,
        ] {
            put_varint(&mut out, v);
        }
        put_varint(&mut out, zigzag(self.queue_depth));
        put_varint(&mut out, zigzag(self.workers_busy));
        put_varint(&mut out, zigzag(self.connections_open));
        put_varint(&mut out, zigzag(self.inflight_requests));
        for buckets in [&self.latency_buckets, &self.batch_service_buckets] {
            // Trailing empty buckets carry no information; drop them.
            let used = buckets.len() - buckets.iter().rev().take_while(|&&c| c == 0).count();
            put_varint(&mut out, used as u64);
            for &count in &buckets[..used] {
                put_varint(&mut out, count);
            }
        }
        put_varint(&mut out, self.latency_sum_us);
        put_varint(&mut out, self.batch_service_sum_us);
        put_varint(&mut out, self.tenants.len() as u64);
        for &(acc, rej, comp) in &self.tenants {
            put_varint(&mut out, acc);
            put_varint(&mut out, rej);
            put_varint(&mut out, comp);
        }
        out
    }

    /// Decodes an [`MetricsSnapshot::encode`] payload.
    ///
    /// # Errors
    ///
    /// Structured [`CodecError`]s for truncation, version mismatch,
    /// out-of-bounds lengths and trailing bytes; never panics.
    pub fn decode(bytes: &[u8]) -> Result<MetricsSnapshot, CodecError> {
        let (&version, rest) = bytes.split_first().ok_or(CodecError::Truncated)?;
        if version != SNAPSHOT_CODEC_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let mut pos = 0usize;
        let mut next = || take_varint(rest, &mut pos);
        let [accepted, rejected, completed, failed, retries, batches, coalesced, kernel_cache_hits, kernel_cache_misses] = [
            next()?,
            next()?,
            next()?,
            next()?,
            next()?,
            next()?,
            next()?,
            next()?,
            next()?,
        ];
        let queue_depth = unzigzag(take_varint(rest, &mut pos)?);
        let workers_busy = unzigzag(take_varint(rest, &mut pos)?);
        let connections_open = unzigzag(take_varint(rest, &mut pos)?);
        let inflight_requests = unzigzag(take_varint(rest, &mut pos)?);
        let mut take_buckets = |cap: u64| -> Result<Vec<u64>, CodecError> {
            let len = take_varint(rest, &mut pos)?;
            if len > cap {
                return Err(CodecError::LengthOverflow);
            }
            let mut buckets = Vec::with_capacity(len as usize);
            for _ in 0..len {
                buckets.push(take_varint(rest, &mut pos)?);
            }
            Ok(buckets)
        };
        let mut latency_buckets = take_buckets(HISTOGRAM_BUCKETS as u64)?;
        let mut batch_service_buckets = take_buckets(HISTOGRAM_BUCKETS as u64)?;
        latency_buckets.resize(HISTOGRAM_BUCKETS, 0);
        batch_service_buckets.resize(HISTOGRAM_BUCKETS, 0);
        let latency_sum_us = take_varint(rest, &mut pos)?;
        let batch_service_sum_us = take_varint(rest, &mut pos)?;
        let tenant_count = take_varint(rest, &mut pos)?;
        if tenant_count > MAX_DECODED_LEN {
            return Err(CodecError::LengthOverflow);
        }
        let mut tenants = Vec::with_capacity(tenant_count as usize);
        for _ in 0..tenant_count {
            tenants.push((
                take_varint(rest, &mut pos)?,
                take_varint(rest, &mut pos)?,
                take_varint(rest, &mut pos)?,
            ));
        }
        if pos != rest.len() {
            return Err(CodecError::TrailingBytes);
        }
        let mut snapshot = MetricsSnapshot {
            accepted,
            rejected,
            completed,
            failed,
            retries,
            batches,
            coalesced,
            kernel_cache_hits,
            kernel_cache_misses,
            queue_depth,
            workers_busy,
            connections_open,
            inflight_requests,
            latency_p50_us: None,
            latency_p95_us: None,
            latency_p99_us: None,
            latency_mean_us: None,
            batch_service_p50_us: None,
            latency_buckets,
            latency_sum_us,
            batch_service_buckets,
            batch_service_sum_us,
            tenants,
        };
        snapshot.recompute_derived();
        Ok(snapshot)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# apim-serve metrics snapshot")?;
        writeln!(f, "apim_serve_accepted_total {}", self.accepted)?;
        writeln!(f, "apim_serve_rejected_total {}", self.rejected)?;
        writeln!(f, "apim_serve_completed_total {}", self.completed)?;
        writeln!(f, "apim_serve_failed_total {}", self.failed)?;
        writeln!(f, "apim_serve_retries_total {}", self.retries)?;
        writeln!(f, "apim_serve_batches_total {}", self.batches)?;
        writeln!(f, "apim_serve_coalesced_total {}", self.coalesced)?;
        writeln!(
            f,
            "apim_serve_kernel_cache_hits_total {}",
            self.kernel_cache_hits
        )?;
        writeln!(
            f,
            "apim_serve_kernel_cache_misses_total {}",
            self.kernel_cache_misses
        )?;
        writeln!(f, "apim_serve_queue_depth {}", self.queue_depth)?;
        writeln!(f, "apim_serve_workers_busy {}", self.workers_busy)?;
        writeln!(f, "apim_serve_connections_open {}", self.connections_open)?;
        writeln!(f, "apim_serve_inflight_requests {}", self.inflight_requests)?;
        for (name, v) in [
            ("p50", self.latency_p50_us),
            ("p95", self.latency_p95_us),
            ("p99", self.latency_p99_us),
        ] {
            writeln!(
                f,
                "apim_serve_latency_{name}_us {}",
                v.map_or_else(|| "nan".into(), |v| v.to_string())
            )?;
        }
        writeln!(
            f,
            "apim_serve_latency_mean_us {}",
            self.latency_mean_us
                .map_or_else(|| "nan".into(), |v| format!("{v:.1}"))
        )?;
        for (slot, (acc, rej, comp)) in self.tenants.iter().enumerate() {
            if acc + rej + comp > 0 {
                writeln!(
                    f,
                    "apim_serve_tenant{{slot=\"{slot}\"}} accepted={acc} rejected={rej} completed={comp}"
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = Metrics::default();
        m.accepted.inc();
        m.accepted.add(4);
        m.queue_depth.inc();
        m.queue_depth.inc();
        m.queue_depth.dec();
        assert_eq!(m.accepted.get(), 5);
        assert_eq!(m.queue_depth.get(), 1);
    }

    #[test]
    fn histogram_buckets_are_power_of_two_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let h = Histogram::default();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us));
        }
        // Samples 1..=100 µs: the median rank (50) falls in bucket
        // [32, 64), the p99 rank (99) in [64, 128).
        assert_eq!(h.quantile_us(0.50), Some(64));
        assert_eq!(h.quantile_us(0.95), Some(128));
        assert_eq!(h.quantile_us(0.99), Some(128));
        assert_eq!(h.quantile_us(0.0), Some(2), "min rank clamps to 1 sample");
        assert_eq!(h.quantile_us(1.0), Some(128));
        let mean = h.mean_us().unwrap();
        assert!((mean - 50.5).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.mean_us(), None);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histogram::default();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(Duration::from_micros(x % 1_000_000));
        }
        let mut last = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile_us(q).unwrap();
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn merge_sums_counters_and_recomputes_quantiles() {
        let a = Metrics::default();
        let b = Metrics::default();
        a.accepted.add(10);
        b.accepted.add(5);
        a.kernel_cache_hits.add(30);
        b.kernel_cache_hits.add(12);
        a.kernel_cache_misses.add(2);
        b.kernel_cache_misses.add(3);
        a.tenant(1).completed.add(3);
        b.tenant(1).completed.add(4);
        b.tenant(9).rejected.add(2); // striped alias of slot 1
        for us in 1..=50u64 {
            a.latency.record(Duration::from_micros(us));
        }
        for us in 51..=100u64 {
            b.latency.record(Duration::from_micros(us));
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.accepted, 15);
        assert_eq!(merged.kernel_cache_hits, 42);
        assert_eq!(merged.kernel_cache_misses, 5);
        assert_eq!(merged.tenants[1], (0, 2, 7));
        // The merged histogram holds the full 1..=100 µs ramp, so the
        // quantiles must equal a single histogram fed the same samples.
        let whole = Histogram::default();
        for us in 1..=100u64 {
            whole.record(Duration::from_micros(us));
        }
        assert_eq!(merged.latency_p50_us, whole.quantile_us(0.50));
        assert_eq!(merged.latency_p99_us, whole.quantile_us(0.99));
        assert_eq!(merged.latency_mean_us, whole.mean_us());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let m = Metrics::default();
        m.accepted.add(3);
        m.latency.record(Duration::from_micros(10));
        let snap = m.snapshot();
        let mut merged = snap.clone();
        merged.merge(&Metrics::default().snapshot());
        assert_eq!(merged, snap);
    }

    #[test]
    fn codec_round_trips_exactly() {
        let m = Metrics::default();
        m.accepted.add(1000);
        m.rejected.add(17);
        m.completed.add(983);
        m.retries.add(5);
        m.kernel_cache_hits.add(977);
        m.kernel_cache_misses.add(6);
        m.queue_depth.set(-2); // exercises the zigzag path
        m.workers_busy.set(7);
        m.connections_open.set(12);
        m.inflight_requests.set(340);
        m.tenant(0).accepted.add(500);
        m.tenant(5).rejected.add(17);
        for us in [0u64, 1, 3, 900, 70_000, 5_000_000] {
            m.latency.record(Duration::from_micros(us));
            m.batch_service.record(Duration::from_micros(us / 2));
        }
        let snap = m.snapshot();
        let bytes = snap.encode();
        assert_eq!(MetricsSnapshot::decode(&bytes), Ok(snap.clone()));
        // Compact: a handful of live figures fits well under the text form.
        assert!(bytes.len() < snap.to_string().len(), "{}", bytes.len());
    }

    #[test]
    fn codec_round_trips_the_empty_snapshot() {
        let snap = Metrics::default().snapshot();
        assert_eq!(MetricsSnapshot::decode(&snap.encode()), Ok(snap));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = {
            let m = Metrics::default();
            m.accepted.add(40);
            m.latency.record(Duration::from_micros(123));
            m.snapshot().encode()
        };
        assert_eq!(MetricsSnapshot::decode(&[]), Err(CodecError::Truncated));
        assert_eq!(
            MetricsSnapshot::decode(&[99]),
            Err(CodecError::UnsupportedVersion(99))
        );
        // A version-2 peer's payload (no kernel-cache counters) is a
        // structured version mismatch, never a misread snapshot.
        let mut v2 = good.clone();
        v2[0] = 2;
        assert_eq!(
            MetricsSnapshot::decode(&v2),
            Err(CodecError::UnsupportedVersion(2))
        );
        for cut in 1..good.len() {
            assert!(
                MetricsSnapshot::decode(&good[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            MetricsSnapshot::decode(&trailing),
            Err(CodecError::TrailingBytes)
        );
        // A hostile bucket count must be rejected before allocation.
        let mut oversized = vec![SNAPSHOT_CODEC_VERSION];
        oversized.extend(std::iter::repeat_n(0, 13)); // 9 counters, 4 gauges
        oversized.extend(std::iter::repeat_n(0xff, 10)); // varint ~ 2^70
        assert!(MetricsSnapshot::decode(&oversized).is_err());
    }

    #[test]
    fn snapshot_renders_every_line() {
        let m = Metrics::default();
        m.accepted.add(10);
        m.tenant(3).accepted.add(7);
        m.tenant(3 + TENANT_SLOTS as u16).accepted.add(1); // striped alias
        m.latency.record(Duration::from_micros(500));
        m.connections_open.set(4);
        m.inflight_requests.set(19);
        m.kernel_cache_hits.add(21);
        m.kernel_cache_misses.add(2);
        let text = m.snapshot().to_string();
        assert!(text.contains("apim_serve_accepted_total 10"));
        assert!(text.contains("apim_serve_connections_open 4"));
        assert!(text.contains("apim_serve_inflight_requests 19"));
        assert!(text.contains("apim_serve_kernel_cache_hits_total 21"));
        assert!(text.contains("apim_serve_kernel_cache_misses_total 2"));
        assert!(text.contains("apim_serve_latency_p50_us 512"));
        assert!(text.contains("slot=\"3\""));
        assert!(text.contains("accepted=8"), "aliased stripe sums: {text}");
    }
}
