//! Pieces every workload shares: the seeded generator, summaries, the
//! metric list a run prints, and the outcome tally.

use std::time::Duration;

/// SplitMix64 over a seed mixed with a stream name, so each workload (and
/// each input family inside one) draws an independent, reproducible
/// sequence from the single `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        // FNV-1a over the stream name, folded into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[-bound, bound)`.
    pub fn signed(&mut self, bound: i64) -> i64 {
        (self.next_u64() % (2 * bound as u64)) as i64 - bound
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: u64) -> bool {
        self.next_u64().is_multiple_of(n)
    }
}

/// Quantile of an ascending slice, interpolating linearly between the
/// two closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and 99th percentile of a sample, plus its size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

pub fn summarize(values: &mut [f64]) -> Summary {
    values.sort_by(f64::total_cmp);
    Summary {
        n: values.len(),
        p50: quantile(values, 0.50),
        p99: quantile(values, 0.99),
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    summarize(values).p50
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The metrics one run prints, in insertion order.
#[derive(Default)]
pub struct Metrics {
    pub entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name`, replacing an earlier value.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.entries.retain(|(n, _, _)| *n != name);
        self.entries.push((name, value, unit));
    }

    /// Adds the entries of `other` whose names are not set yet.
    pub fn merge_missing(&mut self, other: Metrics) {
        for (name, value, unit) in other.entries {
            if self.get(&name).is_none() {
                self.entries.push((name, value, unit));
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number as JSON; non-finite values (a zero-length timing, say)
/// are not JSON numbers and are reported as `null`, which the run also
/// counts as a failure.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Operations attempted and failed over a whole run. A failure is an
/// error or refusal from the program, or an output that differs from the
/// oracle.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Counts one checked output.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &[T], want: &[T]) {
        if got == want {
            self.ok();
        } else {
            let at = got.iter().zip(want).position(|(g, w)| g != w);
            self.fail(|| {
                format!(
                    "{what}: output differs from the oracle (len {} vs {}, first mismatch at {at:?})",
                    got.len(),
                    want.len()
                )
            });
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Sample counts behind each summary, for the result record.
    pub samples: Vec<(&'static str, usize)>,
}

/// What a workload measured for its end-to-end metrics: timed work and
/// the calibration slices interleaved with it.
pub struct Measured {
    /// Seconds of each set-up cycle.
    pub setup_s: Vec<f64>,
    /// Requests completed inside the timed slices, and the slices' total
    /// seconds.
    pub requests: u64,
    pub busy_s: f64,
    pub elems_per_request: f64,
    /// Raw latency of every request, µs, grouped by timed slice.
    pub slices: Vec<Vec<f64>>,
    /// Calibration rate of every calibration slice, 1/s, and the slices'
    /// total seconds.
    pub cal_rates: Vec<f64>,
    pub cal_s: f64,
    /// Each calibration slice's 99th-percentile operation time, µs, where
    /// a slice times many operations (the ping-pong, the echo); empty for
    /// `bulk`, whose slices are single copies.
    pub cal_p99_us: Vec<f64>,
    /// The reference host's calibration rate and 99th-percentile
    /// operation time.
    pub ref_rate: f64,
    pub ref_p99_us: f64,
}

impl Measured {
    /// Puts the end-to-end metrics and their raw context into `metrics`.
    ///
    /// A `_norm` metric reads as if the host ran its calibration at the
    /// reference rate: a rate is multiplied by reference ÷ this run's
    /// calibration rate (the median over its calibration slices), the
    /// median latency by the inverse. The 99th-percentile latency is
    /// matched to the calibration's own tail instead: multiplied by the
    /// reference's 99th-percentile operation time ÷ this run's (the median
    /// over slices), where the calibration has one. `roof_frac` is the
    /// normalised element rate over the reference memcpy rate; for `bulk`,
    /// whose calibration is that memcpy, it is the element rate over the
    /// interleaved memcpy rate.
    ///
    /// The median latency is taken over every sample of the run; the 99th
    /// percentile is the median over slices of each slice's 99th
    /// percentile, so a burst of host noise in a few slices does not set a
    /// whole run's tail. The run-wide 99th percentile is reported as
    /// `raw.latency_p99_run_us`.
    pub fn put(mut self, metrics: &mut Metrics) -> Summary {
        let cal = median(&mut self.cal_rates);
        let scale = self.ref_rate / cal;
        let req_per_s = self.requests as f64 / self.busy_s;
        let elems_per_s = req_per_s * self.elems_per_request;
        let mut all = Vec::with_capacity(self.slices.iter().map(Vec::len).sum());
        let mut slice_p99 = Vec::with_capacity(self.slices.len());
        for mut slice in self.slices.into_iter().filter(|s| !s.is_empty()) {
            slice_p99.push(summarize(&mut slice).p99);
            all.append(&mut slice);
        }
        let lat = summarize(&mut all);
        let p99 = median(&mut slice_p99);
        let p99_scale = if self.cal_p99_us.is_empty() {
            scale
        } else {
            let cal_p99 = median(&mut self.cal_p99_us);
            metrics.put("calib.p99_us", cal_p99, "us");
            cal_p99 / self.ref_p99_us
        };
        metrics.put("setup_s", median(&mut self.setup_s), "s");
        metrics.put(
            "roof_frac",
            elems_per_s * scale / crate::bulk::REF_MEMCPY_ELEMS_PER_S,
            "ratio",
        );
        metrics.put("req_per_s_norm", req_per_s * scale, "1/s");
        metrics.put("latency_p50_us_norm", lat.p50 / scale, "us");
        metrics.put("latency_p99_us_norm", p99 / p99_scale, "us");
        metrics.put("raw.req_per_s", req_per_s, "1/s");
        metrics.put("raw.latency_p50_us", lat.p50, "us");
        metrics.put("raw.latency_p99_us", p99, "us");
        metrics.put("raw.latency_p99_run_us", lat.p99, "us");
        metrics.put("raw.elems_per_s", elems_per_s, "elems/s");
        metrics.put("calib.rate", cal, "1/s");
        metrics.put(
            "calib.share",
            self.cal_s / (self.cal_s + self.busy_s),
            "ratio",
        );
        lat
    }
}
